"""A pure-Python reference trainer: an executable spec of how a training
run composes its kernels, in plain floats and lists.

It steps a dense network with the mse loss through what the package's
run does, in the order the README states it: each epoch visits the
training rows in the run's shuffle order, one minibatch after another; a
minibatch runs the forward pass, the output gradient r / n of the
half-mean-squared loss, the backward pass, the optimizer update over every
parameter, and then the walls, one layer at a time (its weight and its
bias alike), with the first moments of the crossed weights scaled by alpha.

Every sum is ``acc = 0.0; acc += ...`` over the inner index in the order
the kernels add it, square roots are ``math.sqrt`` and ``mu ** t`` is
Python's own pow, so each step rounds as the numpy kernels do, and the
weights and both moments match the package's bit for bit. Only relu and
identity layers are spelled out; softmax and tanh need transcendentals that
numpy computes differently from ``math``.

The reference draws nothing: it takes the initial arena and each epoch's
permutation from the run it is checked against.
"""

import math


def _layers(shapes, arena):
    """(weight rows, bias) lists per layer from a flat arena laid out as
    Network's: each layer's (in_dim, out_dim) weight in C order, then its
    bias."""
    out, off = [], 0
    for n_in, n_out in shapes:
        w = [list(arena[off + i * n_out:off + (i + 1) * n_out]) for i in range(n_in)]
        off += n_in * n_out
        out.append((w, list(arena[off:off + n_out])))
        off += n_out
    return out


def _flat(layers):
    return [x for w, b in layers for x in [v for row in w for v in row] + b]


def _forward(layers, activations, x):
    """Per layer (input rows, pre-activation rows); the output is the last
    layer's activation."""
    cache, h = [], x
    for (w, b), kind in zip(layers, activations):
        z = []
        for row in h:
            zr = []
            for j in range(len(b)):
                acc = 0.0
                for k in range(len(row)):
                    acc += row[k] * w[k][j]
                zr.append(acc + b[j])
            z.append(zr)
        cache.append((h, z))
        h = [[max(v, 0.0) if kind == "relu" else v for v in zr] for zr in z]
    return h, cache


def _gradient(layers, activations, x, targets):
    """The mse gradient, laid out as the arena."""
    y, cache = _forward(layers, activations, x)
    n = len(x)
    delta = [[(yv - tv) / n for yv, tv in zip(yr, tr)] for yr, tr in zip(y, targets)]
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        w, b = layers[i]
        h_in, z = cache[i]
        if activations[i] == "relu":
            delta = [[d if zv > 0.0 else 0.0 for d, zv in zip(dr, zr)]
                     for dr, zr in zip(delta, z)]
        gw = []
        for a in range(len(w)):
            gr = []
            for j in range(len(b)):
                acc = 0.0
                for r in range(n):
                    acc += h_in[r][a] * delta[r][j]
                gr.append(acc)
            gw.append(gr)
        gb = []
        for j in range(len(b)):
            acc = 0.0
            for r in range(n):
                acc += delta[r][j]
            gb.append(acc)
        grads[i] = (gw, gb)
        if i > 0:
            prev = []
            for dr in delta:
                pr = []
                for a in range(len(w)):
                    acc = 0.0
                    for j in range(len(b)):
                        acc += dr[j] * w[a][j]
                    pr.append(acc)
                prev.append(pr)
            delta = prev
    return _flat(grads)


def _update(kind, p, g, m, v, t, lr, mu, nu, eps, bias_correction):
    """One optimizer step over the flat lists p, m and v (v unused by sgd)."""
    if kind != "sgd" and bias_correction:
        cm = 1.0 - mu ** t
        cn = 1.0 - nu ** t
    else:
        cm = cn = 1.0
    for i, gi in enumerate(g):
        if kind == "sgd":
            m[i] = m[i] * mu + gi
            p[i] = p[i] - lr * m[i]
        elif kind == "adam":
            v[i] = v[i] * nu + (1.0 - nu) * gi * gi
            m[i] = m[i] * mu + (1.0 - mu) * gi
            p[i] = p[i] - lr * (m[i] / cm) / (math.sqrt(v[i] / cn) + eps)
        else:  # laprop
            v[i] = v[i] * nu + (1.0 - nu) * gi * gi
            m[i] = m[i] * mu + (1.0 - mu) * (gi / (math.sqrt(v[i] / cn) + eps))
            p[i] = p[i] - lr * (m[i] / cm)


def _walls(p, m, spans, vols, alpha, clamp):
    """The wall transform on each layer's span of p, momentum scaled."""
    for (start, stop), vol in zip(spans, vols):
        for i in range(start, stop):
            w = p[i]
            if abs(w) > vol:
                moved = alpha * w + (1.0 - alpha) * vol * math.copysign(1.0, w)
                p[i] = min(max(moved, -vol), vol) if clamp else moved
                m[i] = alpha * m[i]


def train(shapes, activations, arena, x, targets, perms, batch_size, opt, vols=None,
          alpha=1.0, clamp=False):
    """The arena and the first and second moments after one epoch per
    permutation in perms, starting from arena with zero moments.

    shapes is each layer's (in_dim, out_dim) and activations its "relu" or
    "identity"; x and targets are row lists; opt is a dict of the
    OptimizerSpec fields; vols, when given, holds one wall per layer."""
    p = [float(a) for a in arena]
    m = [0.0] * len(p)
    v = [0.0] * len(p)
    spans, off = [], 0
    for n_in, n_out in shapes:
        spans.append((off, off + (n_in + 1) * n_out))
        off += (n_in + 1) * n_out
    t = 0
    for perm in perms:
        for start in range(0, len(perm), batch_size):
            rows = [int(r) for r in perm[start:start + batch_size]]
            g = _gradient(_layers(shapes, p), activations,
                          [[float(a) for a in x[r]] for r in rows],
                          [[float(a) for a in targets[r]] for r in rows])
            t += 1
            _update(opt["kind"], p, g, m, v, t, opt["lr"], opt["mu"], opt["nu"],
                    opt["eps"], opt["bias_correction"])
            if vols is not None:
                _walls(p, m, spans, vols, alpha, clamp)
    return p, m, v
