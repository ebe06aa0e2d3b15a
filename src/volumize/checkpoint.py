"""Bitwise-faithful training checkpoints.

Files are framed by volumize._container under magic b"VZCK", version 1;
the body (little-endian throughout) is

    header_len[u32] header[utf-8 JSON] payload[f64 LE, C order]

The header describes the model (layer specs, init scales), the tensor
manifest, optimizer spec and step counter, volumization config,
shuffle-stream state, epoch counter, and the metric history; the payload
is the network's parameter arena followed by the first-moment arena and
(when present) the second-moment arena. Each arena holds the tensors in
manifest order, so it is written whole and cut back out whole.
Every float that must survive the round trip exactly (hyperparameters,
metrics, init scales) is stored as a C99 hex literal, so load(save(run))
reproduces the run bit for bit and a resumed run's trajectory is
indistinguishable from an uninterrupted one.

Load failures raise CheckpointError with a message starting "version:" for
format-version mismatches and "integrity:" for everything else (bad magic,
truncation, checksum or manifest mismatches, header values the run cannot
be rebuilt from, an epoch counter that disagrees with the trajectory).
"""

import json
import math

import numpy as np

from ._container import read_framed, write_framed
from .errors import CheckpointError, ConfigError, VolumizeError
from .linalg import SeededRng
from .net import LOSSES, Layer, LayerSpec, Network
from .optimizers import OptimizerSpec, OptimizerState
from .training import MetricTrajectory, TrainingRun
from .volumization import VolumizationConfig, derive_layer_volumes

_MAGIC = b"VZCK"
_VERSION = 1


def _hex(x: float) -> str:
    return float(x).hex()


def _unhex(s: str) -> float:
    return float.fromhex(s)


def _header_for(run: TrainingRun) -> dict:
    net = run.net
    spec = run.opt_spec
    cfg = run.vol_cfg
    return {
        "kind": "training-run",
        "model": {
            "fan_mode": net.fan_mode,
            "layers": [
                {
                    "in_dim": l.spec.in_dim,
                    "out_dim": l.spec.out_dim,
                    "activation": l.spec.activation,
                    "has_bias": l.spec.has_bias,
                    "init_scale_a": _hex(l.init_scale_a),
                }
                for l in net.layers
            ],
        },
        "tensors": [
            {"name": name, "shape": list(t.shape)}
            for name, t in net.param_tensors()
        ],
        "optimizer": {
            "kind": spec.kind,
            "lr": _hex(spec.lr),
            "mu": _hex(spec.mu),
            "nu": _hex(spec.nu),
            "eps": _hex(spec.eps),
            "bias_correction": spec.bias_correction,
            "t": run.opt_state.t,
            "has_n": run.opt_state.n is not None,
        },
        "vol": {
            "v": _hex(cfg.v),
            "alpha": _hex(cfg.alpha),
            "fan_mode": cfg.fan_mode,
            "overshoot_policy": cfg.overshoot_policy,
        },
        "run": {
            "epoch": run.epoch,
            "batch_size": run.batch_size,
            "loss": run.loss,
        },
        "shuffle_rng": run.shuffle_rng.get_state(),
        "trajectory": {
            "train_loss": [_hex(x) for x in run.trajectory.train_loss],
            "train_acc": [_hex(x) for x in run.trajectory.train_acc],
            "test_loss": [_hex(x) for x in run.trajectory.test_loss],
            "test_acc": [_hex(x) for x in run.trajectory.test_acc],
        },
    }


def _check_epochs(epoch: int, trajectory: MetricTrajectory) -> None:
    lengths = {len(trajectory.train_loss), len(trajectory.train_acc),
               len(trajectory.test_loss), len(trajectory.test_acc)}
    if lengths != {epoch}:
        raise CheckpointError(
            f"integrity: epoch counter {epoch} does not match the "
            f"trajectory lengths {sorted(lengths)}")


def save_checkpoint(path, run: TrainingRun) -> None:
    """Write run to path atomically. A run that load_checkpoint would
    refuse (custom walls, or trajectory lengths that disagree
    with the epoch counter, as after train_metrics=False) is refused here,
    before anything is written."""
    derived = (derive_layer_volumes(run.net, run.vol_cfg)
               if run.vol_cfg.enabled else None)
    if run.vols != derived:
        # the header stores only vol_cfg; walls that don't derive from it
        # would come back wrong, so refuse rather than misload later
        raise ConfigError("runs with custom walls cannot be checkpointed")
    _check_epochs(run.epoch, run.trajectory)
    header = json.dumps(_header_for(run), sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    state = run.opt_state
    payload = np.concatenate([run.net.params, state.m]
                             + ([] if state.n is None else [state.n]))
    write_framed(path, _MAGIC, _VERSION,
                 len(header).to_bytes(4, "little") + header
                 + payload.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> TrainingRun:
    body = read_framed(path, _MAGIC, _VERSION, "checkpoint")
    hlen = int.from_bytes(body[:4], "little")
    if len(body) < 4 or 4 + hlen > len(body):
        raise CheckpointError("integrity: truncated header")
    try:
        header = json.loads(body[4:4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"integrity: unreadable header ({exc})") from exc

    raw = body[4 + hlen:]
    if len(raw) % 8:
        raise CheckpointError("integrity: payload length not a multiple of 8")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)

    try:
        model, o, r = header["model"], header["optimizer"], header["run"]
        specs = [LayerSpec(in_dim=ls["in_dim"], out_dim=ls["out_dim"],
                           activation=ls["activation"], has_bias=ls["has_bias"])
                 for ls in model["layers"]]
        shapes = []
        for spec in specs:
            shapes.append((spec.in_dim, spec.out_dim))
            if spec.has_bias:
                shapes.append((spec.out_dim,))
        if not specs or [tuple(t["shape"]) for t in header["tensors"]] != shapes:
            raise CheckpointError("integrity: tensor manifest does not match the layers")
        if (r["batch_size"] < 1 or o["t"] < 0 or r["loss"] not in LOSSES
                or o["has_n"] != (o["kind"] != "sgd")):
            raise CheckpointError("integrity: bad batch size, step, loss or moments")

        # the parameter arena, then m, then n when present
        sets = 3 if o["has_n"] else 2
        size = sum(math.prod(s) for s in shapes)
        if flat.size != sets * size:
            raise CheckpointError("integrity: payload length does not match manifest")
        layers = [Layer(spec, np.zeros((spec.in_dim, spec.out_dim)),
                        np.zeros(spec.out_dim) if spec.has_bias else None,
                        _unhex(ls["init_scale_a"]))
                  for spec, ls in zip(specs, model["layers"])]
        net = Network(layers, model["fan_mode"])
        net.params[...] = flat[:size]
        opt_spec = OptimizerSpec(kind=o["kind"], lr=_unhex(o["lr"]),
                                 mu=_unhex(o["mu"]), nu=_unhex(o["nu"]),
                                 eps=_unhex(o["eps"]),
                                 bias_correction=o["bias_correction"])
        opt_state = OptimizerState(flat[size:2 * size],
                                   flat[2 * size:] if o["has_n"] else None, o["t"])

        v = header["vol"]
        vol_cfg = VolumizationConfig(v=_unhex(v["v"]), alpha=_unhex(v["alpha"]),
                                     fan_mode=v["fan_mode"],
                                     overshoot_policy=v["overshoot_policy"])
        traj = header["trajectory"]
        trajectory = MetricTrajectory(
            train_loss=[_unhex(x) for x in traj["train_loss"]],
            train_acc=[_unhex(x) for x in traj["train_acc"]],
            test_loss=[_unhex(x) for x in traj["test_loss"]],
            test_acc=[_unhex(x) for x in traj["test_acc"]],
        )
        _check_epochs(r["epoch"], trajectory)
        return TrainingRun(
            net=net, opt_spec=opt_spec, opt_state=opt_state,
            vol_cfg=vol_cfg,
            vols=derive_layer_volumes(net, vol_cfg) if vol_cfg.enabled else None,
            shuffle_rng=SeededRng.from_state(header["shuffle_rng"]),
            batch_size=r["batch_size"], loss=r["loss"],
            epoch=r["epoch"], trajectory=trajectory,
        )
    except CheckpointError:
        raise
    except (VolumizeError, KeyError, TypeError, ValueError) as exc:
        # a header can pass the crc and still hold values no run has
        raise CheckpointError(f"integrity: malformed header ({exc})") from exc
