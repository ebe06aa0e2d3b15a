"""Checkpoint round trips and refusal modes."""

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from volumize._container import read_framed, write_framed
from volumize.checkpoint import load_checkpoint, save_checkpoint
from volumize.cli import main
from volumize.errors import CheckpointError, ConfigError
from volumize.linalg import SeededRng, stable_hash
from volumize.net import LayerSpec, init_network
from volumize.optimizers import OptimizerSpec
from volumize.training import new_run, run_epochs
from volumize.volumization import VolumizationConfig, derive_layer_volumes


def _run(seed=0, kind="adam", epochs=3, vol=True):
    net = init_network([LayerSpec(5, 12, activation="relu"), LayerSpec(12, 3)],
                       SeededRng(stable_hash("ckpt", seed)))
    spec = OptimizerSpec(kind=kind, lr=0.01 if kind != "sgd" else 0.05, mu=0.9)
    cfg = VolumizationConfig(v=0.5, alpha=0.25) if vol else VolumizationConfig()
    return net, new_run(net, spec, cfg, SeededRng(stable_hash("ckpt-rng", seed)),
                        batch_size=16)


def _fix_crc(blob: bytearray) -> bytes:
    blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[4:-4])) & 0xFFFFFFFF)
    return bytes(blob)


def _resign(path, edit, sets_kept=None) -> None:
    """Rewrite a checkpoint's JSON header with edit(header) and re-frame it,
    so only the header values are wrong. sets_kept keeps that many of the
    payload's equal-sized tensor sets (parameters, m, n)."""
    body = read_framed(path, b"VZCK", 1, "checkpoint")
    hlen = int.from_bytes(body[:4], "little")
    header = json.loads(body[4:4 + hlen])
    sets = 3 if header["optimizer"]["has_n"] else 2
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = body[4 + hlen:]
    if sets_kept is not None:
        payload = payload[:len(payload) // sets * sets_kept]
    write_framed(path, b"VZCK", 1, len(text).to_bytes(4, "little") + text + payload)


# one header value the crc cannot catch, per case; the payload stays intact
BAD_HEADER_VALUES = {
    "in_dim 0": lambda h: h["model"]["layers"][0].update(in_dim=0),
    "unknown optimizer": lambda h: h["optimizer"].update(kind="rmsprop"),
    "alpha 5": lambda h: h["vol"].update(alpha=(5.0).hex()),
    # the walls follow model.fan_mode, which save_checkpoint copies to vol
    "vol fan_mode unlike the model's": lambda h: h["vol"].update(fan_mode="fan_out"),
    "unknown fan_mode": lambda h: (h["model"].update(fan_mode="fan_avg"),
                                   h["vol"].update(fan_mode="fan_avg")),
    "negative shuffle seed": lambda h: h["shuffle_rng"].update(seed=-1),
    "batch size 0": lambda h: h["run"].update(batch_size=0),
    "transposed weight shape": lambda h: h["tensors"][0].update(
        shape=h["tensors"][0]["shape"][::-1]),
    "renamed tensor": lambda h: h["tensors"][1].update(name="layer0.b"),
    # 8e14 bytes, refused by the payload length before anything is allocated
    "layer too large to allocate": lambda h: h["model"]["layers"][0].update(
        in_dim=10**7, out_dim=10**7),
    "negative step counter": lambda h: h["optimizer"].update(t=-1),
    "unknown loss": lambda h: h["run"].update(loss="hinge"),
    # the fields agree one by one but not with each other
    "epoch ahead of trajectory": lambda h: (
        h["run"].update(epoch=7),
        h["trajectory"].update(train_loss=[], train_acc=[], test_loss=[], test_acc=[])),
    "short test_acc": lambda h: h["trajectory"]["test_acc"].pop(),
    # floats must be hex literals, and every field must be there
    "lr as a json number": lambda h: h["optimizer"].update(lr=0.01),
    "missing eps": lambda h: h["optimizer"].pop("eps"),
    "non-hex test_acc entry": lambda h: h["trajectory"]["test_acc"].__setitem__(0, "half"),
}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["sgd", "adam", "laprop"])
    def test_everything_survives_bitwise(self, tiny_data, tmp_path, kind):
        _, run = _run(kind=kind)
        run_epochs(run, tiny_data, 3)
        path = tmp_path / "run.vzck"
        save_checkpoint(path, run)
        got = load_checkpoint(path)

        for (na, a), (nb, b) in zip(run.net.param_tensors(),
                                    got.net.param_tensors()):
            assert na == nb
            assert_array_equal(a, b)
        assert_array_equal(run.opt_state.m, got.opt_state.m)
        if kind == "sgd":
            assert got.opt_state.n is None
        else:
            assert_array_equal(run.opt_state.n, got.opt_state.n)
        assert got.opt_state.t == run.opt_state.t
        assert got.opt_spec == run.opt_spec
        assert got.vol_cfg == run.vol_cfg
        assert got.epoch == 3
        assert got.batch_size == run.batch_size
        assert got.loss == run.loss
        assert got.trajectory.train_loss == run.trajectory.train_loss
        assert got.trajectory.test_acc == run.trajectory.test_acc
        assert got.shuffle_rng.get_state() == run.shuffle_rng.get_state()

    def test_resume_is_indistinguishable(self, tiny_data, tmp_path):
        _, straight = _run(seed=1)
        run_epochs(straight, tiny_data, 6)

        _, half = _run(seed=1)
        run_epochs(half, tiny_data, 3)
        path = tmp_path / "half.vzck"
        save_checkpoint(path, half)
        resumed = load_checkpoint(path)
        run_epochs(resumed, tiny_data, 3)

        assert resumed.trajectory.test_acc == straight.trajectory.test_acc
        assert resumed.trajectory.train_loss == straight.trajectory.train_loss
        for (_, a), (_, b) in zip(straight.net.param_tensors(),
                                  resumed.net.param_tensors()):
            assert_array_equal(a, b)

    def test_saved_files_are_byte_identical(self, tiny_data, tmp_path):
        for name in ("a.vzck", "b.vzck"):
            _, run = _run(seed=2)
            run_epochs(run, tiny_data, 2)
            save_checkpoint(tmp_path / name, run)
        assert (tmp_path / "a.vzck").read_bytes() == (tmp_path / "b.vzck").read_bytes()

    def test_fresh_run_round_trips(self, tmp_path):
        _, run = _run(seed=3, vol=False)
        path = tmp_path / "fresh.vzck"
        save_checkpoint(path, run)
        got = load_checkpoint(path)
        assert got.epoch == 0
        assert got.trajectory.n_epochs == 0
        assert got.vols is None

    def test_walls_rederived_on_load(self, tiny_data, tmp_path):
        _, run = _run(seed=4)
        run_epochs(run, tiny_data, 1)
        path = tmp_path / "w.vzck"
        save_checkpoint(path, run)
        got = load_checkpoint(path)
        want = derive_layer_volumes(got.net, got.vol_cfg)
        assert got.vols == want


class TestRefusals:
    def _saved(self, tiny_data, tmp_path):
        _, run = _run(seed=5)
        run_epochs(run, tiny_data, 2)
        path = tmp_path / "c.vzck"
        save_checkpoint(path, run)
        return path

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.vzck"
        path.write_bytes(b"WHAT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "x.vzck"
        path.write_bytes(b"VZCK\x01")
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    def test_flipped_payload_byte(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-40] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    def test_truncated_file(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    def test_unsupported_version(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(_fix_crc(blob))
        with pytest.raises(CheckpointError, match="^version:"):
            load_checkpoint(path)

    def test_garbled_header(self, tiny_data, tmp_path):
        path = self._saved(tiny_data, tmp_path)
        blob = bytearray(path.read_bytes())
        assert blob[9:10] == b"{"  # header JSON starts after magic+version+len
        blob[9] = ord("X")
        path.write_bytes(_fix_crc(blob))
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(BAD_HEADER_VALUES))
    def test_bad_header_value_is_integrity_error(self, tiny_data, tmp_path, case):
        path = self._saved(tiny_data, tmp_path)
        load_checkpoint(path)  # the re-signing alone breaks nothing
        _resign(path, lambda h: None)
        load_checkpoint(path)
        _resign(path, BAD_HEADER_VALUES[case])
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    def test_large_declared_layer_is_refused_without_allocating(self, tiny_data,
                                                                 tmp_path):
        # 2000x2000 weights would be 32 MB per arena; the short payload is
        # refused from the layer specs before the network is built
        path = self._saved(tiny_data, tmp_path)
        _resign(path, lambda h: h["model"]["layers"][0].update(in_dim=2000, out_dim=2000))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="^integrity: payload length"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_adam_without_second_moments_is_integrity_error(self, tiny_data,
                                                            tmp_path):
        path = self._saved(tiny_data, tmp_path)
        _resign(path, lambda h: h["optimizer"].update(has_n=False), sets_kept=2)
        with pytest.raises(CheckpointError, match="^integrity:"):
            load_checkpoint(path)

    @staticmethod
    def _resume_after(tmp_path, case):
        """Exit code of `train --resume` from a 1-epoch checkpoint re-signed
        with the bad value ``case``, toward 2 epochs."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_per_class = 10\ndim = 4\nhidden_dims = 8\n"
                       "optimizer = sgd\nlr = 0.05\nbatch_size = 16\n"
                       "checkpoint_every = 0\nepochs = 1\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        _resign(out / "checkpoint.bin", BAD_HEADER_VALUES[case])
        cfg.write_text(cfg.read_text().replace("epochs = 1", "epochs = 2"))
        return main(["train", "--config", str(cfg), "--out", str(out), "--resume"])

    def test_bad_header_value_on_resume_exits_two(self, tmp_path, capsys):
        assert self._resume_after(tmp_path, "batch size 0") == 2
        assert "integrity" in capsys.readouterr().err

    def test_epoch_ahead_of_trajectory_on_resume_exits_two(self, tmp_path, capsys):
        # not the exit 1 of a checkpoint ahead of its config: the header lies
        assert self._resume_after(tmp_path, "epoch ahead of trajectory") == 2
        assert "integrity" in capsys.readouterr().err

    def test_custom_walls_refused(self, tiny_data, tmp_path):
        net = init_network([LayerSpec(5, 8, activation="relu"), LayerSpec(8, 3)],
                           SeededRng(6))
        cfg = VolumizationConfig(v=0.5, alpha=0.0)
        custom = tuple(0.2 for _ in derive_layer_volumes(net, cfg))
        run = new_run(net, OptimizerSpec(kind="sgd", lr=0.05, mu=0.9), cfg,
                      SeededRng(6), batch_size=16, vols=custom)
        run_epochs(run, tiny_data, 1)
        with pytest.raises(ConfigError):
            save_checkpoint(tmp_path / "no.vzck", run)
