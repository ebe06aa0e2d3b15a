"""Weight quantization onto the volumization walls, plus distribution
diagnostics and a packed on-disk format.

Training with walls at +-V piles weight mass onto the walls, which is what
makes post-hoc rounding to {-V, V} (binary) or {-V, 0, V} (ternary) cheap in
accuracy. quantized_training() advances a TrainingRun (see training.py),
applies the rounding onto the run's walls every period_epochs and keeps
going from the rounded network; optimizer state is carried across rounding
events unchanged.

Packed files are framed by volumize._container under magic b"VZQW",
version 1; the body (little-endian throughout) is

    mode[1] n_tensors[u32]
    per tensor:
        name_len[u16] name[utf-8] ndim[u8] dims[u32 each]
        V[f64] codes[packed bits, little-endian bit order, byte-padded]

Binary packs 1 bit/weight (1 -> +V, 0 -> -V); ternary packs 2 bits/weight
(0b00 -> 0, 0b01 -> +V, 0b10 -> -V; 0b11 is invalid and rejected at load).
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._container import read_framed, write_framed
from .errors import CheckpointError, ConfigError, DomainError
from .training import run_epochs

MODES = ("binary", "ternary")

_MAGIC = b"VZQW"
_VERSION = 1
_MODE_CODES = {"binary": 1, "ternary": 2}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}
_WIDTH = {"binary": 1, "ternary": 2}  # bits per weight code


@dataclass(frozen=True)
class QuantizationScheme:
    mode: str = "ternary"
    period_epochs: int = 2

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.period_epochs < 1:
            raise ConfigError(
                f"period_epochs must be >= 1, got {self.period_epochs}"
            )


def quantize(w, vol: float, mode: str):
    """Round an array onto the walls.

    binary:  w >= 0 -> +V, else -V.
    ternary: w > V/2 -> +V; w < -V/2 -> -V; the closed middle band -> 0.

    Idempotent, and the output lands exactly in {-V, V} / {-V, 0, V}.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if not vol > 0:
        raise DomainError(f"vol must be positive, got {vol}")
    w = np.asarray(w, dtype=np.float64)
    if mode == "binary":
        return np.where(w >= 0.0, vol, -vol)
    half = vol / 2.0
    return np.where(w > half, vol, np.where(w < -half, -vol, 0.0))


def quantize_network(net, vols, mode: str) -> None:
    """Round every layer slice of the arena (biases included) in place onto
    that layer's walls; ``vols`` holds one wall per layer."""
    if len(vols) != len(net.layers):
        raise ConfigError(f"got {len(vols)} walls for {len(net.layers)} layers")
    for sl, vol in zip(net.layer_slices, vols):
        net.params[sl] = quantize(net.params[sl], vol, mode)


@dataclass(eq=False)
class WeightHistogram:
    """Per-layer weight distribution with the walls statistic.

    mass_near_walls is the fraction of the layer's parameters within
    0.05*V of either wall (|abs(w) - V| <= 0.05*V); NaN when no walls
    were supplied.
    """

    layer: int
    bin_edges: np.ndarray
    counts: np.ndarray
    mass_near_walls: float
    vol: float


def mass_near_walls(values, vol: float) -> float:
    if not vol > 0:
        raise DomainError(f"vol must be positive, got {vol}")
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0.0
    return float((np.abs(np.abs(v) - vol) <= 0.05 * vol).mean())


def weight_histogram(net, vols=None):
    """One 64-bin histogram per layer over [-max|w|, max|w|], weights and
    biases pooled (they share the layer's walls, one per layer in ``vols``)."""
    if vols is not None and len(vols) != len(net.layers):
        raise ConfigError(f"got {len(vols)} walls for {len(net.layers)} layers")
    out = []
    for i, sl in enumerate(net.layer_slices):
        vals = net.params[sl]
        m = float(np.abs(vals).max()) if vals.size else 0.0
        if m == 0.0:
            m = 1.0
        counts, edges = np.histogram(vals, bins=64, range=(-m, m))
        vol = float("nan") if vols is None else float(vols[i])
        if np.isfinite(vol) and vol > 0:
            mass = mass_near_walls(vals, vol)
        else:
            mass = float("nan")
        out.append(WeightHistogram(layer=i, bin_edges=edges, counts=counts,
                                   mass_near_walls=mass, vol=vol))
    return out


def quantized_training(run, data, scheme: QuantizationScheme, epochs: int):
    """Advance a TrainingRun by epochs with periodic in-place rounding onto
    its walls; returns (quantized_net, rounding_epochs).

    Every scheme.period_epochs, at the end of an epoch that still has
    training ahead of it, all parameters are rounded in place and training
    simply continues (optimizer moments are kept). The final epoch never
    rounds: run.net is left as trained, quantized_net is its rounded copy.
    """
    if run.vols is None or not min(run.vols) > 0:
        raise ConfigError("quantized training requires active walls "
                          "(0 < v < inf and alpha < 1)")
    end = run.epoch + epochs
    rounding_epochs = []

    def hook(net, state, epoch: int) -> None:
        if epoch % scheme.period_epochs == 0 and epoch < end:
            quantize_network(net, run.vols, scheme.mode)
            rounding_epochs.append(epoch)

    run_epochs(run, data, epochs, epoch_hook=hook)
    quantized = run.net.clone()
    quantize_network(quantized, run.vols, scheme.mode)
    return quantized, rounding_epochs


# --- packed on-disk format ---------------------------------------------

def _encode_codes(values, vol: float, mode: str) -> bytes:
    q = quantize(values, vol, mode).ravel()
    codes = (q > 0) | (q < 0) << 1
    # the low _WIDTH bits of each code, lowest first, as a little-endian
    # bit stream
    planes = codes[:, None] >> np.arange(_WIDTH[mode]) & 1
    return np.packbits(planes.astype(np.uint8), bitorder="little").tobytes()


def _decode_codes(raw: bytes, n: int, vol: float, mode: str) -> np.ndarray:
    width = _WIDTH[mode]
    planes = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), count=n * width,
                           bitorder="little").reshape(n, width)
    codes = (planes << np.arange(width, dtype=np.uint8)).sum(axis=1)
    values = np.array((-vol, vol) if mode == "binary" else (0.0, vol, -vol))
    if (codes >= len(values)).any():
        raise CheckpointError(f"integrity: invalid {mode} code {int(codes.max()):#b}")
    return values[codes]


def save_quantized_weights(path, named_tensors, vols, mode: str) -> None:
    """Write tensors in the packed wall-code format (rounding them first;
    a no-op for already-rounded tensors). ``vols`` holds one wall per
    tensor, aligned with ``named_tensors``."""
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    tensors = list(named_tensors)
    if len(vols) != len(tensors):
        raise ConfigError(f"got {len(vols)} walls for {len(tensors)} tensors")
    body = bytearray()
    body.append(_MODE_CODES[mode])
    body += struct.pack("<I", len(tensors))
    for (name, t), vol in zip(tensors, vols):
        if not vol > 0:
            raise DomainError(f"vol for {name!r} must be positive, got {vol}")
        t = np.asarray(t, dtype=np.float64)
        nb = name.encode("utf-8")
        body += struct.pack("<H", len(nb))
        body += nb
        body += struct.pack("<B", t.ndim)
        for d in t.shape:
            body += struct.pack("<I", d)
        body += struct.pack("<d", vol)
        body += _encode_codes(t, vol, mode)
    write_framed(path, _MAGIC, _VERSION, bytes(body))


def load_quantized_weights(path):
    """Read a packed file back; returns (mode, [(name, array), ...]) with
    values exactly in the mode's codomain."""
    body = read_framed(path, _MAGIC, _VERSION, "quantized-weights")
    try:
        mode_code, count = struct.unpack_from("<BI", body)
        if mode_code not in _MODE_NAMES:
            raise CheckpointError(f"integrity: unknown mode byte {mode_code}")
        mode = _MODE_NAMES[mode_code]
        off = 5
        out = []
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", body, off)
            off += 2
            name = body[off:off + nlen].decode("utf-8")
            if len(name.encode("utf-8")) != nlen:
                raise CheckpointError("integrity: truncated tensor name")
            off += nlen
            (ndim,) = struct.unpack_from("<B", body, off)
            off += 1
            dims = []
            for _ in range(ndim):
                (d,) = struct.unpack_from("<I", body, off)
                off += 4
                dims.append(d)
            (vol,) = struct.unpack_from("<d", body, off)
            off += 8
            n = math.prod(dims)
            nbytes = (n * _WIDTH[mode] + 7) // 8
            raw = body[off:off + nbytes]
            if len(raw) != nbytes:
                raise CheckpointError("integrity: truncated code payload")
            off += nbytes
            out.append((name, _decode_codes(raw, n, vol, mode).reshape(dims)))
        if off != len(body):
            raise CheckpointError("integrity: trailing bytes after payload")
    except (struct.error, UnicodeDecodeError) as exc:
        raise CheckpointError(f"integrity: malformed body ({exc})") from exc
    return mode, out
