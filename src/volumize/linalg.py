"""Deterministic dense linear algebra and seeded sampling.

Matrices are plain C-contiguous float64 numpy arrays; `as_matrix` is the
boundary validator. The one non-negotiable numeric property in this module
is the summation order of `matmul`: strictly left-to-right over the inner
index, so results match a scalar triple loop to the last ulp and runs are
reproducible across machines.

Randomness goes through SeededRng, a thin wrapper over the Philox 4x64-10
counter-based bit generator: a pure function of (seed, position), with
bit-exact state capture for checkpointing and hash-derived child streams
for parallel work.
"""

import hashlib

import numpy as np

from . import _kernels
from .errors import DomainError, ShapeError


def stable_hash(*parts) -> int:
    """Collapse ints/strings into a u64, stable across runs and platforms.

    Used to derive per-cell and per-purpose seeds; sha256-based, so unlike
    builtin hash() it does not depend on PYTHONHASHSEED.
    """
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, (int, np.integer)):
            h.update(b"i")
            h.update(int(p).to_bytes(16, "little", signed=True))
        elif isinstance(p, str):
            b = p.encode("utf-8")
            h.update(b"s")
            h.update(len(b).to_bytes(4, "little"))
            h.update(b)
        else:
            raise DomainError(f"stable_hash accepts ints and strings, got {type(p).__name__}")
    return int.from_bytes(h.digest()[:8], "little")


class SeededRng:
    """Seeded counter-based random stream.

    Two instances with the same seed replay the same sequence bit for bit;
    get_state/set_state reposition exactly (the underlying Philox counter
    plus buffer is captured, since draws consume a variable number of
    words). spawn(...) derives streams that are independent of the parent
    and of each other.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise DomainError(f"seed must be a u64, got {seed}")
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(key=seed))

    def random(self, n: int | None = None):
        """Unit doubles in [0, 1); the raw stream every sampler maps from."""
        return self._gen.random(n)

    def uniform(self, lo: float, hi: float, n: int | None = None):
        return lo + (hi - lo) * self._gen.random(n)

    def normal(self, n=None):
        return self._gen.standard_normal(n)

    def integers(self, lo: int, hi: int, n: int | None = None):
        return self._gen.integers(lo, hi, size=n)

    def choice_without_replacement(self, n: int, k: int):
        return self._gen.choice(n, size=k, replace=False)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def spawn(self, *tags) -> "SeededRng":
        """Child stream keyed by (seed, *tags); same tags, same stream."""
        return SeededRng(stable_hash(self.seed, *tags))

    def get_state(self) -> dict:
        st = self._gen.bit_generator.state
        return {
            "seed": self.seed,
            "counter": [int(x) for x in st["state"]["counter"]],
            "key": [int(x) for x in st["state"]["key"]],
            "buffer": [int(x) for x in st["buffer"]],
            "buffer_pos": int(st["buffer_pos"]),
            "has_uint32": int(st["has_uint32"]),
            "uinteger": int(st["uinteger"]),
        }

    @classmethod
    def from_state(cls, state: dict) -> "SeededRng":
        rng = cls(state["seed"])
        rng.set_state(state)
        return rng

    def set_state(self, state: dict) -> None:
        self.seed = int(state["seed"])
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array(state["counter"], dtype=np.uint64),
                "key": np.array(state["key"], dtype=np.uint64),
            },
            "buffer": np.array(state["buffer"], dtype=np.uint64),
            "buffer_pos": int(state["buffer_pos"]),
            "has_uint32": int(state["has_uint32"]),
            "uinteger": int(state["uinteger"]),
        }


def sample_uniform(rng: SeededRng, lo: float, hi: float, n: int):
    """n i.i.d. draws in [lo, hi), as lo + (hi-lo) * unit-stream.

    The affine map is applied explicitly so the output is a deterministic
    function of the unit stream (tests rely on that identity).
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi})")
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return lo + (hi - lo) * rng.random(n)


def cauchy_from_unit(u, scale: float):
    """Inverse-CDF map: scale * tan(pi * (u - 1/2)) for u in [0, 1)."""
    return scale * np.tan(np.pi * (np.asarray(u, dtype=np.float64) - 0.5))


def sample_cauchy(rng: SeededRng, scale: float, n: int):
    if scale <= 0:
        raise DomainError(f"need scale > 0, got {scale}")
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return cauchy_from_unit(rng.random(n), scale)


def he_uniform_init(rng: SeededRng, rows: int, cols: int, fan: int):
    """Uniform(-a, a) matrix with a = sqrt(6/fan); returns (matrix, a).

    `a` is the quantity per-layer wall positions are expressed in, so it is
    handed back alongside the weights rather than recomputed downstream.
    """
    if rows <= 0 or cols <= 0:
        raise DomainError(f"matrix dims must be positive, got {rows}x{cols}")
    if fan <= 0:
        raise DomainError(f"fan must be a positive integer, got {fan}")
    a = float(np.sqrt(6.0 / fan))
    w = sample_uniform(rng, -a, a, rows * cols).reshape(rows, cols)
    return w, a


def as_matrix(x, name: str = "matrix"):
    """Validate/convert to a 2-D C-contiguous float64 array."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    return arr


def matmul(a, b):
    """Dense product with deterministic left-to-right inner summation.

    Matches the scalar triple loop elementwise to 0 ulp; see _kernels for
    why this must never become a BLAS call.
    """
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dims differ: {a.shape} @ {b.shape}")
    return _kernels.matmul_nn(a, b)


def jacobi_eigh(a, tol: float = 1e-12, max_sweeps: int = 60):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns). Deterministic
    (fixed sweep order), no LAPACK; meant for the small correlation
    matrices in the theory lab, not for production-size problems.
    """
    a = as_matrix(a, "a").copy()
    n = a.shape[0]
    if a.shape[1] != n:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
        raise DomainError("matrix must be symmetric")
    v = np.eye(n)
    norm = float(np.sqrt((a * a).sum()))
    if norm == 0.0:
        return np.zeros(n), v
    iu = np.triu_indices(n, 1)
    for _ in range(max_sweeps):
        # off-diagonal mass summed directly; norm^2 - diag^2 cancels below
        # the ulp of norm^2 and would report convergence ~sqrt(eps) early
        off = float(np.sqrt(2.0 * (a[iu] ** 2).sum()))
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                # standard stable rotation angle
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1e150:
                    t = 1.0 / (2.0 * theta)  # asymptotic; theta**2 would overflow
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[:, p] - s * a[:, q]
                rot_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = rot_p, rot_q
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                rot_p = c * v[:, p] - s * v[:, q]
                rot_q = s * v[:, p] + c * v[:, q]
                v[:, p], v[:, q] = rot_p, rot_q
    vals = np.diag(a).copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]
