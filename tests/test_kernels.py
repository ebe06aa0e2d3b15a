"""Contract for the hot kernels.

Every kernel is checked bit for bit against a pure-Python scalar oracle
below: one loop per output element, accumulating strictly left-to-right
over the inner index, with the same per-element arithmetic as the
vectorized kernel. The oracles are slow on purpose; they are the
independent reference for both the values and the summation order.
Oracles square with ``d * d``, never ``** 2``: a numpy float64 scalar
power can differ by an ulp from numpy's array square.
"""

import tracemalloc

import numpy as np
import pytest

import volumize
from volumize import _kernels as K
from volumize.theory import alpha_for_weight_decay


def _rand(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# scalar oracles
# ---------------------------------------------------------------------------


def _matmul_nn_oracle(a, b):
    n, k = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[kk, j]
            out[i, j] = acc
    return out


def _matmul_tn_oracle(a, b):
    k, n = a.shape
    _, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += a[kk, i] * b[kk, j]
            out[i, j] = acc
    return out


def _matmul_nt_oracle(a, b):
    n, k = a.shape
    m, _ = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += a[i, kk] * b[j, kk]
            out[i, j] = acc
    return out


def _matvec_oracle(a, x):
    n, m = a.shape
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(m):
            acc += a[i, j] * x[j]
        out[i] = acc
    return out


def _matvec_t_oracle(a, x):
    n, m = a.shape
    out = np.zeros(m)
    for j in range(m):
        acc = 0.0
        for i in range(n):
            acc += a[i, j] * x[i]
        out[j] = acc
    return out


def _colsum_oracle(m):
    rows, cols = m.shape
    out = np.zeros(cols)
    for j in range(cols):
        acc = 0.0
        for i in range(rows):
            acc += m[i, j]
        out[j] = acc
    return out


def _volumize_oracle(w, mom, vol, alpha, clamp):
    if alpha == 1.0 or not np.isfinite(vol):
        return
    for i in range(w.shape[0]):
        wi = w[i]
        if abs(wi) > vol:
            s = 1.0 if wi > 0.0 else -1.0
            wn = alpha * wi + (1.0 - alpha) * vol * s
            if clamp:
                wn = min(max(wn, -vol), vol)
            w[i] = wn
            mom[i] = alpha * mom[i]


def _sgd_update_oracle(w, g, m, lr, mu):
    for i in range(w.shape[0]):
        m[i] = mu * m[i] + g[i]
        w[i] = w[i] - lr * m[i]


def _adam_update_oracle(w, g, m, n, lr, mu, nu, eps, cm, cn):
    for i in range(w.shape[0]):
        n[i] = nu * n[i] + (1.0 - nu) * g[i] * g[i]
        m[i] = mu * m[i] + (1.0 - mu) * g[i]
        denom = np.sqrt(n[i] / cn) + eps
        w[i] = w[i] - lr * (m[i] / cm) / denom


def _laprop_update_oracle(w, g, m, n, lr, mu, nu, eps, cm, cn):
    for i in range(w.shape[0]):
        n[i] = nu * n[i] + (1.0 - nu) * g[i] * g[i]
        denom = np.sqrt(n[i] / cn) + eps
        m[i] = mu * m[i] + (1.0 - mu) * (g[i] / denom)
        w[i] = w[i] - lr * (m[i] / cm)


def _clip_sq_values_oracle(u, eta, vol):
    e = np.empty_like(u)
    for i in range(u.shape[0]):
        x = u[i] + eta[i]
        x = min(max(x, -vol), vol)
        d = x - u[i]
        e[i] = d * d
    return e


def _clip_sq_cv_values_oracle(u, eta, vol):
    z = np.empty_like(u)
    for i in range(u.shape[0]):
        x = u[i] + eta[i]
        if x > vol:
            d = vol - u[i]
            z[i] = d * d - eta[i] * eta[i]
        elif x < -vol:
            d = vol + u[i]
            z[i] = d * d - eta[i] * eta[i]
        else:
            z[i] = 0.0
    return z


def _flow_iter_identity_oracle(w, u_prime, step, vol, alpha):
    skip = alpha == 1.0 or not np.isfinite(vol)
    dmax = 0.0
    for i in range(w.shape[0]):
        wi = w[i]
        wn = wi - step * (wi - u_prime[i])
        if not skip and abs(wn) > vol:
            s = 1.0 if wn > 0.0 else -1.0
            wn = alpha * wn + (1.0 - alpha) * vol * s
        w[i] = wn
        d = abs(wn - wi)
        if d > dmax or d != d:  # a nan stays, as in numpy's max
            dmax = d
    return dmax


_ORACLES = {
    "matmul_nn": _matmul_nn_oracle,
    "matmul_tn": _matmul_tn_oracle,
    "matmul_nt": _matmul_nt_oracle,
    "matvec": _matvec_oracle,
    "matvec_t": _matvec_t_oracle,
    "colsum": _colsum_oracle,
    "volumize": _volumize_oracle,
    "sgd_update": _sgd_update_oracle,
    "adam_update": _adam_update_oracle,
    "laprop_update": _laprop_update_oracle,
    "clip_sq_values": _clip_sq_values_oracle,
    "clip_sq_cv_values": _clip_sq_cv_values_oracle,
    "flow_iter_identity": _flow_iter_identity_oracle,
}


def _assert_same_bits(got, want):
    """Equal bit for bit, +-0.0 included; a nan may carry any payload, since
    which of two nans a sum keeps is up to the hardware."""
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(np.where(nan, 0.0, got).view(np.int64),
                                  np.where(nan, 0.0, want).view(np.int64))


def _assert_matches_oracle(name, arrays, extra=()):
    """Run kernel and oracle on independent copies of the same inputs
    (several kernels mutate in place) and compare the return value and
    every argument array bit for bit."""
    got_args = tuple(a.copy() for a in arrays)
    want_args = tuple(a.copy() for a in arrays)
    got = getattr(K, name)(*got_args, *extra)
    want = _ORACLES[name](*want_args, *extra)
    if want is None:
        assert got is None
    else:
        _assert_same_bits(np.asarray(got), np.asarray(want))
    for a, b in zip(got_args, want_args):
        _assert_same_bits(a, b)


_INPUTS = {
    "matmul_nn": lambda: (_rand((7, 5), 0), _rand((5, 9), 1)),
    "matmul_tn": lambda: (_rand((5, 7), 2), _rand((5, 9), 3)),
    "matmul_nt": lambda: (_rand((7, 5), 4), _rand((9, 5), 5)),
    "matvec": lambda: (_rand((7, 5), 6), _rand(5, 7)),
    "matvec_t": lambda: (_rand((7, 5), 8), _rand(7, 9)),
    "colsum": lambda: (_rand((11, 4), 10),),
    "volumize": lambda: (_rand(101, 11), _rand(101, 12)),
    "sgd_update": lambda: (_rand(64, 13), _rand(64, 14), _rand(64, 15)),
    "adam_update": lambda: (
        _rand(64, 16), _rand(64, 17), _rand(64, 18), np.abs(_rand(64, 19)) + 0.1
    ),
    "laprop_update": lambda: (
        _rand(64, 20), _rand(64, 21), _rand(64, 22), np.abs(_rand(64, 23)) + 0.1
    ),
    "clip_sq_values": lambda: (_rand(257, 24), _rand(257, 25, 0.5)),
    "clip_sq_cv_values": lambda: (_rand(257, 26), _rand(257, 27, 0.5)),
    "flow_iter_identity": lambda: (_rand(99, 28), _rand(99, 29)),
}

_EXTRA = {
    # trailing scalar arguments per kernel
    "volumize": (0.4, 0.3, False),
    "sgd_update": (0.05, 0.9),
    "adam_update": (1e-3, 0.9, 0.999, 1e-8, 0.271, 0.0999),
    "laprop_update": (1e-3, 0.9, 0.999, 1e-8, 0.271, 0.0999),
    "clip_sq_values": (0.8,),
    "clip_sq_cv_values": (0.8,),
    "flow_iter_identity": (0.1, 0.5, 0.25),
}


def test_every_public_kernel_has_an_oracle():
    public = {n for n, f in vars(K).items()
              if callable(f) and not n.startswith("_") and n != "backend"
              and getattr(f, "__module__", None) == K.__name__}
    assert public == set(_ORACLES)


@pytest.mark.parametrize("name", sorted(_ORACLES))
def test_backends_bitwise_identical(name):
    _assert_matches_oracle(name, _INPUTS[name](), _EXTRA.get(name, ()))


# theorem3's decay alpha, and one at which alpha*w underflows for the tiny
# weights below; -0.0, inf and V = -0.0 sit at the edges of the V = 0 decay
# path's conditions
_ALPHAS = (-1.0, -0.5, -0.0, 0.0, 1e-300, 0.3, alpha_for_weight_decay(4.0, 0.1),
           1.0, np.inf)
_VOLS = (-0.0, 0.0, 0.4, 1.2, 2.0, np.inf)
# signed zeros and tiny weights, kept by the flow's Euler step where u = w
_EDGES = np.array([0.0, -0.0, 1e-30, -1e-30])


@pytest.mark.parametrize("clamp", [False, True])
def test_wall_kernels_match_oracle_across_alpha_and_volume(clamp):
    # the wall special cases (V=0 decay, alpha=0 clip, alpha=1 identity,
    # V=inf off) must hold bitwise, not just approximately
    rng = np.random.default_rng(60 + clamp)
    for alpha in _ALPHAS:
        for vol in _VOLS:
            size = int(rng.integers(1, 40))
            w = np.append(rng.standard_normal(size), _EDGES)
            m = np.append(rng.standard_normal(size), _EDGES)
            u = np.append(rng.standard_normal(size), _EDGES)
            with np.errstate(invalid="ignore"):  # alpha = inf makes nans
                _assert_matches_oracle("volumize", (w, m), (vol, alpha, clamp))
                if not clamp:  # the flow's walls never clamp
                    _assert_matches_oracle("flow_iter_identity", (w, u),
                                           (0.1, vol, alpha))


@pytest.mark.parametrize("clamp", [False, True])
def test_wall_kernel_without_momentum_moves_w_alike(clamp):
    # the flow passes mom=None: w must keep the bits of a call that carries
    # a momentum array, over the same grid and at every special value
    rng = np.random.default_rng(62 + clamp)
    for alpha in _ALPHAS:
        for vol in _VOLS:
            size = int(rng.integers(1, 40))
            w = np.concatenate([rng.standard_normal(size), _EDGES,
                                [np.inf, -np.inf, np.nan]])
            with_mom, without = w.copy(), w.copy()
            with np.errstate(invalid="ignore"):
                K.volumize(with_mom, rng.standard_normal(len(w)), vol, alpha, clamp)
                K.volumize(without, None, vol, alpha, clamp)
            _assert_same_bits(without, with_mom)


@pytest.mark.parametrize("vol", _VOLS)
def test_clip_kernels_match_oracle_across_volume(vol):
    # from every sample crossing a wall (V=0) to none (V=inf)
    u = _rand(129, 70)
    eta = _rand(129, 71, 0.5)
    _assert_matches_oracle("clip_sq_values", (u, eta), (vol,))
    _assert_matches_oracle("clip_sq_cv_values", (u, eta), (vol,))


class TestSummationOrder:
    """The inner-index accumulation order is pinned, not just the values."""

    def test_matmul_nn_matches_scalar_triple_loop(self):
        a = _rand((6, 13), 40)
        b = _rand((13, 4), 41)
        np.testing.assert_array_equal(K.matmul_nn(a, b), _matmul_nn_oracle(a, b))

    def test_matvec_matches_scalar_loop(self):
        a = _rand((9, 17), 42)
        x = _rand(17, 43)
        np.testing.assert_array_equal(K.matvec(a, x), _matvec_oracle(a, x))

    def test_colsum_runs_top_to_bottom(self):
        m = _rand((23, 3), 44)
        np.testing.assert_array_equal(K.colsum(m), _colsum_oracle(m))

    def test_matmul_tn_matches_transposed_oracle(self):
        a = _rand((13, 6), 45)
        b = _rand((13, 4), 46)
        np.testing.assert_array_equal(K.matmul_tn(a, b), _matmul_tn_oracle(a, b))


# ---------------------------------------------------------------------------
# the chunked summation paths: every shape class, layout and special value
# ---------------------------------------------------------------------------


def _mixed(shape, seed, special=False):
    """Standard normals scaled by 10**-12 .. 10**12, with +-0.0 and, when
    ``special``, sparse +-inf and nan."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
    u = rng.random(shape)
    v[u < 0.02] = 0.0
    v[(u >= 0.02) & (u < 0.04)] = -0.0
    if special:
        v[(u >= 0.04) & (u < 0.045)] = np.inf
        v[(u >= 0.045) & (u < 0.05)] = -np.inf
        v[(u >= 0.05) & (u < 0.055)] = np.nan
    return v


def _mm(name, n, k, m, seed, special=False):
    a = _mixed((k, n) if name == "matmul_tn" else (n, k), seed, special)
    b = _mixed((m, k) if name == "matmul_nt" else (k, m), seed + 1, special)
    return name, (a, b)


def _summation_cases(seed):
    """(kernel, args) over the shape classes of the chunked paths."""
    cases = [
        # one-element outputs, which numpy would reduce pairwise
        _mm("matmul_nn", 1, 17, 1, seed), _mm("matmul_nn", 1, 200, 1, seed + 2),
        _mm("matmul_tn", 1, 1000, 1, seed + 4),
        ("matvec", (_mixed((1, 200), seed + 6), _mixed(200, seed + 7))),
        ("matvec_t", (_mixed((200, 1), seed + 8), _mixed(200, seed + 9))),
        ("colsum", (_mixed((200, 1), seed + 10),)),
        # empty inner index and empty outputs
        _mm("matmul_nn", 3, 0, 4, seed), _mm("matmul_tn", 1, 0, 1, seed),
        _mm("matmul_nt", 0, 5, 3, seed), _mm("matmul_nn", 4, 5, 0, seed),
        ("colsum", (np.zeros((0, 3)),)), ("colsum", (np.zeros((0, 1)),)),
        ("matvec", (np.zeros((0, 4)), _mixed(4, seed))),
    ]
    for name in ("matmul_nn", "matmul_tn", "matmul_nt"):
        for n, k, m in ((3, 40, 5), (4, 7, 20), (20, 3, 20), (16, 30, 2),
                        (40, 6, 10), (2, 9, 33), (1, 50, 7), (9, 50, 1)):
            cases.append(_mm(name, n, k, m, seed + n + k + m))
        cases.append(_mm(name, 6, 25, 5, seed + 11, special=True))
    for rows, cols in ((40, 3), (3, 40), (50, 1), (30, 20)):
        a = _mixed((rows, cols), seed + rows + cols)
        cases.append(("matvec", (a, _mixed(cols, seed + 12))))
        cases.append(("matvec_t", (a, _mixed(rows, seed + 13))))
        cases.append(("colsum", (a,)))
    cases.append(("colsum", (_mixed((40, 5), seed + 14, special=True),)))
    return cases


def _layouts(x):
    """The same values as C-ordered, F-ordered, transposed, strided and
    reversed views; a vector has no F order or transpose."""
    if x.ndim == 1:
        wide = np.zeros(2 * len(x))
        wide[::2] = x
        return [x, x, x, wide[::2], x[::-1].copy()[::-1]]
    wide = np.zeros((2 * x.shape[0], 3 * x.shape[1]))
    wide[::2, ::3] = x
    return [x, np.asfortranarray(x), np.ascontiguousarray(x.T).T, wide[::2, ::3],
            x[::-1, ::-1].copy()[::-1, ::-1]]


def _products(name, args):
    """The (k, outputs) terms each kernel sums over its inner index k."""
    a = args[0]
    if name == "colsum":
        return a
    b = args[1]
    if name == "matvec":
        return a.T * b[:, None]
    if name == "matvec_t":
        return a * b[:, None]
    at = a if name == "matmul_tn" else a.T
    bt = b.T if name == "matmul_nt" else b
    return at[:, :, None] * bt[:, None, :]


@pytest.mark.parametrize("block", [256, 1 << 16], ids=["small-block", "real-block"])
def test_summation_kernels_match_oracle_across_shapes_and_layouts(monkeypatch, block):
    # a small block drives small shapes through every path: several chunks
    # with a ragged last one, one slice per chunk, row tiles, transposed
    # narrow outputs
    monkeypatch.setattr(K, "_BLOCK", block)
    with np.errstate(all="ignore"):
        for name, args in _summation_cases(80):
            want = _ORACLES[name](*args)
            for variant in zip(*(_layouts(x) for x in args)):
                got = getattr(K, name)(*variant)
                assert got.flags.c_contiguous
                _assert_same_bits(got, want)


@pytest.mark.parametrize("block", [256, 1 << 16], ids=["small-block", "real-block"])
def test_product_operands_reach_einsum_c_contiguous(monkeypatch, block):
    # every chunk of the untiled operand, the one einsum's inner loop runs
    # along, reaches einsum C-contiguous whatever the caller's layout: the
    # second operand, or the first when the output is built transposed. The
    # bits stay the oracle's
    monkeypatch.setattr(K, "_BLOCK", block)
    real = np.einsum
    seen = []

    def einsum(spec, *operands, **kw):
        seen.append(operands)
        return real(spec, *operands, **kw)

    monkeypatch.setattr(np, "einsum", einsum)
    calls = 0
    with np.errstate(all="ignore"):
        for name, args in _summation_cases(81):
            if name == "colsum":
                continue
            want = _ORACLES[name](*args)
            n, m = (*want.shape, 1)[:2]  # a matvec output is one column
            inner = 0 if m < K._NARROW <= n else 1
            for i, variant in enumerate(zip(*(_layouts(x) for x in args))):
                seen.clear()
                got = getattr(K, name)(*variant)
                strided = [ops[inner].strides for ops in seen
                           if not ops[inner].flags.c_contiguous]
                assert not strided, (name, [x.shape for x in args], i, strided)
                _assert_same_bits(got, want)
                calls += 1
    assert calls


@pytest.mark.parametrize("name, args", [
    # three chunks at the real block, the last one ragged
    _mm("matmul_tn", 3, 9000, 5, 90),
    # one k-slice per chunk: the output alone fills the block
    _mm("matmul_nn", 256, 3, 256, 91),
    # two row tiles, the second ragged
    _mm("matmul_nt", 300, 2, 256, 92),
    # a transposed narrow output in several chunks
    _mm("matmul_nn", 800, 64, 4, 93),
], ids=["ragged-chunks", "one-slice", "row-tiles", "narrow"])
def test_summation_kernels_match_oracle_at_block_scale(name, args):
    _assert_same_bits(getattr(K, name)(*args), _ORACLES[name](*args))


def _pairwise(p):
    if len(p) <= 2:
        return p.sum(axis=0) if len(p) else np.zeros(p.shape[1:])
    h = len(p) // 2
    return _pairwise(p[:h]) + _pairwise(p[h:])


def test_summation_cases_are_order_sensitive():
    # the inputs above can tell a reassociated sum from the pinned order:
    # for each kernel a reversed and a pairwise sum each differ from the
    # oracle on at least one case
    with np.errstate(all="ignore"):
        for kernel in ("matmul_nn", "matmul_tn", "matmul_nt", "matvec", "matvec_t",
                       "colsum"):
            rev = pair = False
            for name, args in _summation_cases(80):
                if name != kernel:
                    continue
                p = _products(name, args)
                if p.size == 0:
                    continue
                p = p.reshape(len(p), -1)
                want = _ORACLES[name](*args)
                fwd = np.zeros(p.shape[1])
                for row in p:
                    fwd = fwd + row
                np.testing.assert_array_equal(fwd.reshape(want.shape), want)
                back = np.zeros(p.shape[1])
                for row in p[::-1]:
                    back = back + row
                rev |= not np.array_equal(back.reshape(want.shape), want, equal_nan=True)
                pair |= not np.array_equal(_pairwise(p).reshape(want.shape), want,
                                           equal_nan=True)
            assert rev and pair, kernel


@pytest.mark.parametrize("name, shapes", [
    ("matmul_tn", ((128, 256), (128, 256))),
    ("matmul_nn", ((800, 64), (64, 4))),
    # one output row tile at a time: a whole k-slice would be 2 MB
    ("matmul_nn", ((1000, 256), (256, 256))),
    # strided untiled operands, staged: the backward product's b.T, and the
    # a.T of a narrow output built transposed
    ("matmul_nt", ((128, 256), (256, 256))),
    ("matmul_nn", ((800, 256), (256, 4))),
])
def test_product_kernels_allocate_at_most_one_block(name, shapes):
    # the output, one block of _BLOCK float64s for a chunk's products and
    # staged untiled operand, the buffers numpy gives a broadcasting ufunc (one
    # bufsize of float64s per input) and 64 KiB; building the whole k x n x m
    # product would take 64 MiB, 1.6 MB, 512 MiB, 64 MiB and 6.6 MB here
    a, b = _rand(shapes[0], 95), _rand(shapes[1], 96)
    tracemalloc.start()
    try:
        out = getattr(K, name)(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes + 8 * K._BLOCK + 2 * 8 * np.getbufsize() + 64 * 1024


# a value no product or sum of the cases above comes near
_SENTINEL = -7.25e300


@pytest.mark.parametrize("block", [256, 1 << 16], ids=["small-block", "real-block"])
def test_gradient_kernels_write_into_out(monkeypatch, block):
    # loss_and_grad passes its gradient views as out=: the kernels return
    # out itself holding the returned path's bits, write every element of
    # it and nothing of the arena around it
    monkeypatch.setattr(K, "_BLOCK", block)
    cases = [case for case in _summation_cases(82) if case[0] in ("matmul_tn", "colsum")]
    cases += [_mm("matmul_tn", 3, 0, 4, 83), ("colsum", (np.zeros((0, 5)),))]
    # k = 0 and the one-element output (k = 1000) are among them
    assert {args[0].shape[0] for name, args in cases if name == "matmul_tn"} >= {0, 1000}
    calls = 0
    with np.errstate(all="ignore"):
        for name, args in cases:
            for variant in zip(*(_layouts(x) for x in args)):
                want = getattr(K, name)(*variant)
                arena = np.full(want.size + 6, _SENTINEL)
                out = arena[3:3 + want.size].reshape(want.shape)
                got = getattr(K, name)(*variant, out=out)
                assert got is out
                _assert_same_bits(out, want)
                assert (arena[:3] == _SENTINEL).all() and (arena[3 + want.size:] == _SENTINEL).all()
                calls += 1
    assert calls


def _arrays(obj):
    """Every array inside nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for x in obj for a in _arrays(x)]
    return []


def test_product_plans_share_one_scratch_block():
    # a plan per shape, all carving their views from one block: the shapes
    # of a training run keep one block resident, not one each. The last
    # shape needs more than _BLOCK (a 256-wide k-slice fills it before its
    # staged operand), so the block grows and the plans made before are
    # dropped with the old one
    shapes = [("matmul_nn", (128, 8), (8, 64)), ("matmul_nn", (128, 64), (64, 4)),
              ("matmul_tn", (128, 64), (128, 4)), ("matmul_tn", (128, 8), (128, 64)),
              ("matmul_nt", (128, 4), (64, 4)), ("matmul_nn", (800, 8), (8, 64)),
              ("matmul_nn", (800, 64), (64, 4)), ("matmul_nn", (2000, 8), (8, 64)),
              ("matmul_nt", (128, 256), (256, 256)), ("matmul_tn", (128, 32), (128, 256)),
              ("matmul_nn", (300, 7), (7, 9)), ("matmul_nn", (1000, 256), (256, 256))]
    for i, (name, sa, sb) in enumerate(shapes):
        getattr(K, name)(_rand(sa, 160 + i), _rand(sb, 180 + i))
    for i, (name, sa, sb) in enumerate(shapes[:-1]):
        getattr(K, name)(_rand(sa, 160 + i), _rand(sb, 180 + i))
    assert len([key for key in K._plans if key[3] == K._BLOCK]) >= 10
    views = _arrays(list(K._plans.values()))
    assert views and all(v.base is K._scratch for v in views)
    assert K._scratch.size >= K._BLOCK


# ---------------------------------------------------------------------------
# the block-wise theory kernels: every block boundary, quiet and busy blocks
# ---------------------------------------------------------------------------


def _blocky(n, block, seed):
    """Standard normals whose every third block is scaled by 1e-3, so blocks
    that cross no wall at V >= 0.4 sit beside blocks that do; +-0.0 anywhere
    and +-inf outside the quiet blocks."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    quiet = np.arange(n) // block % 3 == 1
    v[quiet] *= 1e-3
    r = rng.random(n)
    v[r < 0.05] = 0.0
    v[(r >= 0.05) & (r < 0.1)] = -0.0
    v[~quiet & (r >= 0.1) & (r < 0.13)] = np.inf
    v[~quiet & (r >= 0.13) & (r < 0.16)] = -np.inf
    return v


_SMALL_BLOCK = 8
# empty, one element, either side of one block, several with a ragged last
_BLOCK_SIZES = (0, 1, _SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                3 * _SMALL_BLOCK + 5)


def test_blocky_inputs_mix_quiet_and_crossing_blocks():
    n = 3 * _SMALL_BLOCK + 5
    s = _blocky(n, _SMALL_BLOCK, 100) + _blocky(n, _SMALL_BLOCK, 101)
    for vol in (0.4, 1.2):
        crossing = [bool((np.abs(s[i:i + _SMALL_BLOCK]) > vol).any())
                    for i in range(0, n, _SMALL_BLOCK)]
        assert crossing == [True, False, True, True], vol


def test_clip_cv_kernel_matches_oracle_block_by_block(monkeypatch):
    monkeypatch.setattr(K, "_BLOCK", _SMALL_BLOCK)
    with np.errstate(all="ignore"):
        for n in _BLOCK_SIZES:
            u = _blocky(n, _SMALL_BLOCK, 100 + n)
            eta = _blocky(n, _SMALL_BLOCK, 200 + n)
            for vol in _VOLS:
                _assert_matches_oracle("clip_sq_cv_values", (u, eta), (vol,))


def test_flow_kernel_matches_oracle_block_by_block(monkeypatch):
    monkeypatch.setattr(K, "_BLOCK", _SMALL_BLOCK)
    with np.errstate(all="ignore"):
        for n in _BLOCK_SIZES:
            w = _blocky(n, _SMALL_BLOCK, 300 + n)
            u = _blocky(n, _SMALL_BLOCK, 400 + n)
            for alpha in _ALPHAS:
                for vol in _VOLS:
                    _assert_matches_oracle("flow_iter_identity", (w, u),
                                           (0.1, vol, alpha))


def test_theory_kernels_match_oracle_at_block_scale():
    # three whole blocks and a ragged fourth at the real block size
    n = 3 * K._BLOCK + 5
    a, b = _blocky(n, K._BLOCK, 500), _blocky(n, K._BLOCK, 501)
    with np.errstate(all="ignore"):
        _assert_matches_oracle("clip_sq_cv_values", (a, b), (0.8,))
        _assert_matches_oracle("flow_iter_identity", (a, b), (0.1, 0.4, 0.3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("where", ["middle", "last"])
@pytest.mark.parametrize("vol, alpha", [(np.inf, 0.3), (0.4, 0.5), (0.0, 0.9)])
def test_flow_delta_propagates_nan_and_inf(monkeypatch, bad, where, vol, alpha):
    # gradient_flow_sim stops with NumericError on a non-finite delta, so the
    # block maxima must keep a nan or inf from any block, as one max does
    monkeypatch.setattr(K, "_BLOCK", _SMALL_BLOCK)
    n = 3 * _SMALL_BLOCK + 5
    w_old = _rand(n, 110)
    u = _rand(n, 111)
    u[_SMALL_BLOCK + 3 if where == "middle" else n - 2] = bad
    w = w_old.copy()
    with np.errstate(all="ignore"):
        delta = K.flow_iter_identity(w, u, 0.1, vol, alpha)
        want = float(np.abs(w - w_old).max())
    assert np.isnan(delta) if np.isnan(bad) else delta == np.inf
    np.testing.assert_array_equal(delta, want)


@pytest.mark.parametrize("vol, alpha, decay", [
    (0.0, 0.5, True),
    (0.0, 0.0, True),
    (0.0, 2.0, True),
    (-0.0, 0.5, False),
    (0.0, -0.0, False),
    (0.0, -0.5, False),
    (0.0, np.inf, False),
    (0.4, 0.5, False),
])
def test_flow_takes_v0_walls_as_one_multiply(monkeypatch, vol, alpha, decay):
    # exactly at V = +0.0 with alpha +0.0 or positive and finite, the wall
    # step is alpha*w alone: no |w| > V mask and no sgn(w)
    calls = []

    class Numpy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(np, name)

    monkeypatch.setattr(K, "np", Numpy())
    w, u = _rand(50, 130), _rand(50, 131)
    with np.errstate(invalid="ignore"):
        K.flow_iter_identity(w, u, 0.1, vol, alpha)
    assert ("sign" not in calls) is decay
    assert calls.count("multiply") == (2 if decay else 3)


@pytest.mark.parametrize("name", ["clip_sq_values", "clip_sq_cv_values"])
@pytest.mark.parametrize("vol", [0.0, 0.8, np.inf])
def test_clip_kernels_make_no_masked_copy(monkeypatch, name, vol):
    # a masked copy branches on every run of its mask, so it costs far more
    # than a plain ufunc pass at mid densities; the clip kernels select
    # with np.clip and a bitwise keep-mask instead
    calls = []

    class Numpy:
        def __getattr__(self, attr):
            fn = getattr(np, attr)
            if isinstance(fn, type) or not callable(fn):
                return fn

            def spy(*args, **kwargs):
                calls.append((attr, set(kwargs)))
                return fn(*args, **kwargs)
            return spy

    monkeypatch.setattr(K, "np", Numpy())
    u, eta = _rand(200, 140), _rand(200, 141, 0.5)
    getattr(K, name)(u, eta, vol, out=np.empty(200))
    names = [attr for attr, _ in calls]
    assert "add" in names  # the proxy saw the kernel's calls
    assert not {"where", "putmask", "place"} & set(names)
    assert all("where" not in kwargs for _, kwargs in calls)


def _crossing_blocks(n, a, sigma, seed):
    """Lab draws u ~ Unif(-a, a), eta ~ Unif(-sigma, sigma), arranged so
    that block 0 has u, eta >= 0 (it can cross only the upper wall), block
    1 u, eta <= 0 (only the lower), block 2 both signs with +-0.0, +-inf
    and nan lanes, and the ragged rest is scaled by 1e-3 (quiet at V > 0)."""
    rng = np.random.default_rng(seed)
    u, eta = rng.uniform(-a, a, n), rng.uniform(-sigma, sigma, n)
    b = K._BLOCK
    for x in (u, eta):
        x[:b] = np.abs(x[:b])
        x[b:2 * b] = -np.abs(x[b:2 * b])
        x[3 * b:] *= 1e-3
    lanes = rng.choice(np.arange(2 * b, 3 * b), size=(2, 10), replace=False)
    u[lanes[0]] = [0.0, -0.0, np.inf, -np.inf, np.nan] * 2
    eta[lanes[1]] = [0.0, -0.0, np.inf, -np.inf, np.nan] * 2
    return u, eta


# the lab's V grid at a = 1, sigma = 0.5: V = 0, a - sigma, V* = a - sigma/2,
# a + sigma and beyond, signed zeros and no walls: from every sample
# crossing (V = 0) to none (V > a + sigma, outside the non-finite lanes)
_LAB_VOLS = (0.0, -0.0, 0.5, 0.75, 1.5, 2.0, np.inf)


def test_crossing_blocks_cross_above_below_both_and_not():
    n = 3 * K._BLOCK + 5
    u, eta = _crossing_blocks(n, 1.0, 0.5, 150)
    with np.errstate(invalid="ignore"):
        s = u + eta
        blocks = [s[i:i + K._BLOCK] for i in range(0, n, K._BLOCK)]
        above = [bool((x > 0.75).any()) for x in blocks]
        below = [bool((x < -0.75).any()) for x in blocks]
    assert above == [True, False, True, False]
    assert below == [False, True, True, False]


@pytest.mark.parametrize("name", ["clip_sq_values", "clip_sq_cv_values"])
@pytest.mark.parametrize("vol", _LAB_VOLS)
def test_clip_kernels_write_into_out_at_block_scale(name, vol):
    # through out=, as the estimators call them, across crossing densities
    n = 3 * K._BLOCK + 5
    u, eta = _crossing_blocks(n, 1.0, 0.5, 150)
    args = (u.copy(), eta.copy())
    out = np.full(n, np.nan)
    with np.errstate(all="ignore"):
        got = getattr(K, name)(*args, vol, out=out)
        want = _ORACLES[name](u, eta, vol)
    assert got is out
    _assert_same_bits(out, want)
    _assert_same_bits(args[0], u)
    _assert_same_bits(args[1], eta)


@pytest.mark.parametrize("name, vol, alpha, floats, masks", [
    ("clip_sq_cv_values", 0.8, None, 0, 0),
    ("flow_iter_identity", 0.0, 0.9, 0, 0),
    ("flow_iter_identity", 0.4, 0.3, 2, 1),
], ids=["clip_sq_cv_values", "flow_iter_identity", "flow_iter_identity-walls"])
def test_theory_kernels_allocate_one_block_of_scratch(name, vol, alpha, floats, masks):
    # a process allocates the kernels' scratch blocks on their first use and
    # keeps them, so a second call allocates none: at most volumize's
    # temporaries (two float blocks and a mask) and 64 KiB. Scratch
    # allocated per call peaked at 0.5-0.6 MB (1.6 MB with volumize's), and
    # the whole-array expressions at 20-52 MB and 4.8-6.6 MB
    n = 2_000_000 if name == "clip_sq_cv_values" else 200_000
    a, b = _rand(n, 120), _rand(n, 121, 0.5)
    out = np.empty(n)

    def call():
        if name == "clip_sq_cv_values":
            K.clip_sq_cv_values(a, b, vol, out=out)
        else:
            K.flow_iter_identity(out, b, 0.1, vol, alpha)

    np.copyto(out, a)
    call()  # the first call in a process allocates the blocks
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (8 * floats + masks) * K._BLOCK + 64 * 1024


class TestVolumizeKernel:
    def test_untouched_inside_walls(self):
        w = np.array([0.1, -0.2, 0.3])
        m = np.array([1.0, 2.0, 3.0])
        K.volumize(w, m, 0.5, 0.3, False)
        np.testing.assert_array_equal(w, [0.1, -0.2, 0.3])
        np.testing.assert_array_equal(m, [1.0, 2.0, 3.0])

    def test_momentum_scaled_only_on_crossings(self):
        w = np.array([0.1, 0.9, -0.9])
        m = np.array([1.0, 1.0, 1.0])
        K.volumize(w, m, 0.5, 0.25, False)
        np.testing.assert_array_equal(m, [1.0, 0.25, 0.25])

    def test_infinite_volume_is_identity(self):
        w = _rand(32, 50)
        m = _rand(32, 51)
        w0, m0 = w.copy(), m.copy()
        K.volumize(w, m, np.inf, 0.3, False)
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(m, m0)

    def test_clamp_policy_keeps_reflection_inside(self):
        # alpha=-1 reflects; with a wall this tight the reflected point
        # overshoots the far wall and clamp must cut it at -vol.
        w = np.array([10.0])
        m = np.array([0.0])
        K.volumize(w, m, 1.0, -1.0, True)
        assert w[0] == -1.0


def test_backend_is_numpy():
    assert volumize.backend() == "numpy"
