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
The layer, optimizer, volumization and trajectory sections are the
to_record images of LayerSpec, OptimizerSpec, VolumizationConfig and
MetricTrajectory (volumize._container), so every float that must survive
the round trip exactly (hyperparameters, metrics, init scales) is stored as
a C99 hex literal, load(save(run)) reproduces the run bit for bit and a
resumed run's trajectory is indistinguishable from an uninterrupted one.
The volumization section also carries the key fan_mode, copied from the
network's fan_mode (the walls follow the net's init scales); a header whose
two fan_mode keys disagree is refused.

Load failures raise CheckpointError with a message starting "version:" for
format-version mismatches and "integrity:" for everything else (bad magic,
truncation, checksum or manifest mismatches, header values the run cannot
be rebuilt from, an epoch counter that disagrees with the trajectory). The
payload length is checked against the header's layer specs before the
network is allocated, so a header declaring a huge model allocates nothing.
The loader checks only the format; a value that the constructors of the
network and the run refuse arrives as "integrity: malformed header (...)".
"""

import json

import numpy as np

from ._container import from_record, read_framed, to_record, write_framed
from .errors import CheckpointError, ConfigError, VolumizeError
from .linalg import SeededRng
from .net import Layer, LayerSpec, Network
from .optimizers import OptimizerSpec, OptimizerState
from .training import MetricTrajectory, TrainingRun
from .volumization import VolumizationConfig, derive_layer_volumes

_MAGIC = b"VZCK"
_VERSION = 1


def _header_for(run: TrainingRun) -> dict:
    return {
        "kind": "training-run",
        "model": {
            "fan_mode": run.net.fan_mode,
            "layers": [to_record(l.spec, init_scale_a=float(l.init_scale_a).hex())
                       for l in run.net.layers],
        },
        "tensors": [
            {"name": name, "shape": list(t.shape)}
            for name, t in run.net.param_tensors()
        ],
        "optimizer": to_record(run.opt_spec, t=run.opt_state.t,
                               has_n=run.opt_state.n is not None),
        "vol": to_record(run.vol_cfg, fan_mode=run.net.fan_mode),
        "run": {
            "epoch": run.epoch,
            "batch_size": run.batch_size,
            "loss": run.loss,
        },
        "shuffle_rng": run.shuffle_rng.get_state(),
        "trajectory": to_record(run.trajectory),
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
    if run.vols != derive_layer_volumes(run.net, run.vol_cfg):
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
        if header["vol"]["fan_mode"] != model["fan_mode"]:
            raise CheckpointError("integrity: the walls' fan_mode is not the model's")
        # the parameter arena, then m, then n when present; the length is
        # checked before the network is allocated
        specs = [from_record(LayerSpec, ls) for ls in model["layers"]]
        size = Network.arena_size(specs)
        if flat.size != (3 if o["has_n"] else 2) * size:
            raise CheckpointError("integrity: payload length does not match manifest")
        # zero layers from the header's specs, filled from the payload
        net = Network([Layer(spec, 0.0, 0.0, float.fromhex(ls["init_scale_a"]))
                       for spec, ls in zip(specs, model["layers"])], model["fan_mode"])
        manifest = [(t["name"], tuple(t["shape"])) for t in header["tensors"]]
        if manifest != [(name, t.shape) for name, t in net.param_tensors()]:
            raise CheckpointError("integrity: tensor manifest does not match the layers")
        net.params[...] = flat[:size]
        opt_spec = from_record(OptimizerSpec, o)
        opt_state = OptimizerState(flat[size:2 * size],
                                   flat[2 * size:] if o["has_n"] else None, o["t"])

        vol_cfg = from_record(VolumizationConfig, header["vol"])
        trajectory = from_record(MetricTrajectory, header["trajectory"])
        _check_epochs(r["epoch"], trajectory)
        return TrainingRun(
            net=net, opt_spec=opt_spec, opt_state=opt_state,
            vol_cfg=vol_cfg,
            vols=derive_layer_volumes(net, vol_cfg),
            shuffle_rng=SeededRng.from_state(header["shuffle_rng"]),
            batch_size=r["batch_size"], loss=r["loss"],
            epoch=r["epoch"], trajectory=trajectory,
        )
    except CheckpointError:
        raise
    except (VolumizeError, KeyError, TypeError, ValueError) as exc:
        # a header can pass the crc and still hold values no run has
        raise CheckpointError(f"integrity: malformed header ({exc})") from exc
