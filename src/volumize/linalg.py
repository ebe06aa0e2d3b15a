"""Seeded sampling, stable hashing and the matrix validator.

Matrices are plain C-contiguous float64 numpy arrays; `as_matrix` is the
boundary validator. The products themselves live in `_kernels`, which pins
their summation order.

Randomness goes through SeededRng, a thin wrapper over the Philox 4x64-10
counter-based bit generator: a pure function of (seed, position), with
bit-exact state capture for checkpointing, hash-derived child streams
for parallel work and cursors placed ahead on a stream, so two parts of
one draw can be read side by side.
"""

import hashlib

import numpy as np

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

    def random(self, n: int | None = None, out=None):
        """Unit doubles in [0, 1); the raw stream every sampler maps from.

        Drawn into ``out`` when it is given (n is then its length)."""
        return self._gen.random(n, out=out)

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

    def ahead(self, k: int) -> "SeededRng":
        """A second cursor on this stream, k draws ahead of it.

        Its state is the one this stream would have after k unit doubles
        were drawn and discarded, buffer included; this stream does not
        move. Each unit double is one 64-bit Philox word and a Philox block
        holds four, so the cursor skips whole blocks by advancing the counter
        and draws the rest of the way, at least one word of the block it
        ends in.
        """
        if k < 0:
            raise DomainError(f"need k >= 0, got {k}")
        state = self.get_state()
        pos = state["buffer_pos"] + k
        if pos <= 4:  # still in the block this stream has buffered
            return SeededRng.from_state({**state, "buffer_pos": pos})
        cursor = SeededRng.from_state(state)
        # advance empties the buffer, as if the block at the counter were
        # used up, and clears the pending 32-bit half, which this stream keeps
        blocks, words = divmod(pos - 1, 4)
        cursor._gen.bit_generator.advance(blocks - 1)
        cursor.set_state({**cursor.get_state(), "has_uint32": state["has_uint32"],
                          "uinteger": state["uinteger"]})
        cursor.random(words + 1)
        return cursor

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


def sample_uniform(rng: SeededRng, lo: float, hi: float, n: int, out=None):
    """n i.i.d. draws in [lo, hi), as lo + (hi-lo) * unit-stream.

    The affine map is applied explicitly so the output is a deterministic
    function of the unit stream (tests rely on that identity). It runs in
    place on the draws, which go into ``out`` when it is given.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi})")
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    r = rng.random(n, out=out)
    r *= hi - lo
    r += lo
    return r


def sample_cauchy(rng: SeededRng, scale: float, n: int, out=None):
    """n i.i.d. Cauchy(0, scale) draws by the inverse-CDF map
    scale * tan(pi * (u - 1/2)) of the unit stream u, applied in place on
    the draws, which go into ``out`` when it is given."""
    if scale <= 0:
        raise DomainError(f"need scale > 0, got {scale}")
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    r = rng.random(n, out=out)
    r -= 0.5
    r *= np.pi
    np.tan(r, out=r)
    r *= scale
    return r


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
