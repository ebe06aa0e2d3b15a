"""The one file container: pinned bytes, corruption, crash safety, and the
record codec.

Checkpoints and packed weights share one framing (magic, version byte,
body, crc32) and every output goes through one atomic writer. The golden
digests below were recorded before the framing moved into one module, so
they pin the bytes both formats had then; the checkpoint digest also pins
the header the record codec writes.
"""

import hashlib
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from volumize._container import from_record, to_record
from volumize.checkpoint import load_checkpoint, save_checkpoint
from volumize.csvio import write_csv
from volumize.errors import CheckpointError, ConfigError
from volumize.linalg import SeededRng
from volumize.net import LayerSpec, init_network
from volumize.optimizers import OptimizerSpec
from volumize.quantizer import load_quantized_weights, save_quantized_weights
from volumize.sweep import CellResult
from volumize.training import MetricTrajectory, new_run
from volumize.volumization import VolumizationConfig

# sha256 of the files _tiny_run / _tiny_weights produce
CHECKPOINT_SHA256 = "469e9b6c0ce73d8e512ee22034d34d3f2d694440079183e780f634b2a61e3bf3"
WEIGHTS_SHA256 = {
    "binary": "459388bc91d588f145371d9e1d2154d2d55a135e12bcad41895a39f5fd13b448",
    "ternary": "4d6a70981b88c36969d13db87d5ed5bae20685b70b8f63b84571a0fbaec9e03e",
}


def _tiny_run():
    """A 3-4-2 adam run whose every stored value is set without
    transcendental functions, so its bytes do not depend on the CPU."""
    net = init_network([LayerSpec(3, 4, activation="relu"), LayerSpec(4, 2)],
                       SeededRng(11))
    run = new_run(net, OptimizerSpec(kind="adam", lr=0.01),
                  VolumizationConfig(v=0.5, alpha=0.25), SeededRng(12),
                  batch_size=4)
    off = 0
    for k, (_, t) in enumerate(net.param_tensors()):
        sl = slice(off, off + t.size)
        off += t.size
        run.opt_state.m[sl] = np.arange(t.size) / (k + 3)
        run.opt_state.n[sl] = np.arange(t.size) / (k + 7)
    run.opt_state.t = 6
    run.epoch = 2
    run.trajectory.train_loss[:] = [0.75, 0.5]
    run.trajectory.train_acc[:] = [0.25, 0.5]
    run.trajectory.test_loss[:] = [0.875, 0.625]
    run.trajectory.test_acc[:] = [0.125, 0.375]
    return run


def _tiny_weights(path, mode):
    net = _tiny_run().net
    tensors = net.param_tensors()
    save_quantized_weights(path, tensors, [0.375] * len(tensors), mode)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def checkpoint_file(tmp_path):
    path = tmp_path / "tiny.vzck"
    save_checkpoint(path, _tiny_run())
    return path


@pytest.fixture(params=["binary", "ternary"])
def weights_file(tmp_path, request):
    path = tmp_path / f"tiny-{request.param}.vzqw"
    _tiny_weights(path, request.param)
    return request.param, path


class TestGoldenBytes:
    def test_checkpoint(self, checkpoint_file):
        assert _sha256(checkpoint_file) == CHECKPOINT_SHA256

    def test_packed_weights(self, weights_file):
        mode, path = weights_file
        assert _sha256(path) == WEIGHTS_SHA256[mode]


def _every_corruption(blob):
    """Every proper prefix, then every single-bit flip, of blob."""
    for n in range(len(blob)):
        yield f"truncated to {n}", blob[:n]
    for i in range(len(blob)):
        for bit in range(8):
            bad = bytearray(blob)
            bad[i] ^= 1 << bit
            yield f"bit {bit} of byte {i} flipped", bytes(bad)


class TestEveryCorruptionRefused:
    def _check(self, path, load):
        blob = path.read_bytes()
        bad_path = path.with_name("bad")
        for what, bad in _every_corruption(blob):
            bad_path.write_bytes(bad)
            with pytest.raises(CheckpointError, match="^integrity:"):
                load(bad_path)
                pytest.fail(f"loaded a file with {what}")

    def test_checkpoint(self, checkpoint_file):
        self._check(checkpoint_file, load_checkpoint)

    def test_packed_weights(self, weights_file):
        self._check(weights_file[1], load_quantized_weights)


class TestAtomicWrites:
    @pytest.mark.parametrize("fails", ["fsync", "replace"])
    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch,
                                                   fails):
        path = tmp_path / "run.vzck"
        old = _tiny_run()
        save_checkpoint(path, old)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError(f"injected {fails} failure")

        newer = _tiny_run()
        newer.epoch = 3
        for metric in (newer.trajectory.train_loss, newer.trajectory.train_acc,
                       newer.trajectory.test_loss, newer.trajectory.test_acc):
            metric.append(0.25)
        monkeypatch.setattr(os, fails, boom)
        with pytest.raises(OSError, match="injected"):
            save_checkpoint(path, newer)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.vzck"]
        got = load_checkpoint(path)
        assert got.epoch == old.epoch
        for (_, a), (_, b) in zip(got.net.param_tensors(), old.net.param_tensors()):
            assert_array_equal(a, b)

    def test_successful_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "run.vzck"
        save_checkpoint(path, _tiny_run())
        save_checkpoint(path, _tiny_run())
        _tiny_weights(tmp_path / "w.vzqw", "ternary")
        write_csv(tmp_path / "t.csv", ("a",), [{"a": 1}])
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["run.vzck", "t.csv", "w.vzqw"]

    def test_bad_csv_row_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ("a", "b"), [{"a": 1, "b": 2}])
        before = path.read_bytes()
        with pytest.raises(ConfigError, match="outside the header"):
            write_csv(path, ("a", "b"), [{"a": 3, "b": 4}, {"a": 5, "zzz": 6}])
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


# the dataclasses whose to_record images are the checkpoint header sections
# and the sweep cell files
RECORD_CLASSES = (LayerSpec, OptimizerSpec, VolumizationConfig,
                  MetricTrajectory, CellResult)
_CODEC_TYPES = (float, list[float], int, str, bool)

# nan, both infinities, -0.0, the least subnormal, and an int given for a float
_SPECIALS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 3)

# every record class, carrying each special value its validation admits
RECORDS = [
    LayerSpec(3, 4, activation="tanh", has_bias=False),
    OptimizerSpec(kind="laprop", lr=5e-324, mu=-0.0, nu=0, eps=3,
                  bias_correction=False),
    VolumizationConfig(v=math.inf, alpha=-0.0, overshoot_policy="clamp"),
    VolumizationConfig(v=5e-324, alpha=-1),
    MetricTrajectory(*(list(_SPECIALS) for _ in range(4))),
    CellResult(v_idx=1, alpha_idx=0, repeat=2, v=3, alpha=-0.0,
               seed=2**64 - 1, best=math.nan, last=-math.inf, gap=5e-324,
               status="error: diverged"),
    CellResult(v_idx=0, alpha_idx=3, repeat=0, v=math.inf, alpha=-1,
               seed=0, best=-0.0, last=math.inf, gap=math.nan),
]


def _codec_knows(tp) -> bool:
    return any(tp == known for known in _CODEC_TYPES)


def _hexed(tp, value):
    """A field value with its floats as hex, so -0.0 != 0.0 and nan == nan."""
    if tp is float:
        return float(value).hex()
    if tp == list[float]:
        return [float(x).hex() for x in value]
    return value


class TestRecordCodec:
    @pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__name__)
    def test_every_record_field_has_a_codec_type(self, cls):
        unknown = [(f.name, f.type) for f in fields(cls) if not _codec_knows(f.type)]
        assert unknown == []

    def test_string_annotations_fail_the_guard(self):
        # what `from __future__ import annotations` would leave in f.type
        for annotation in ("float", "list[float]", "int", "str", "bool"):
            assert not _codec_knows(annotation)
        assert not _codec_knows(list)

    def test_every_record_class_is_covered(self):
        assert {type(r) for r in RECORDS} == set(RECORD_CLASSES)

    @pytest.mark.parametrize("obj", RECORDS, ids=lambda r: type(r).__name__)
    def test_round_trip_is_bitwise(self, obj):
        back = from_record(type(obj), json.loads(json.dumps(to_record(obj))))
        for f in fields(obj):
            got = getattr(back, f.name)
            assert _hexed(f.type, got) == _hexed(f.type, getattr(obj, f.name))
            if f.type is float:
                assert type(got) is float
            elif f.type == list[float]:
                assert {type(x) for x in got} == {float}

    def test_special_values_are_hex_literals(self):
        rec = to_record(MetricTrajectory(test_acc=list(_SPECIALS)))
        assert rec["train_loss"] == []
        assert rec["test_acc"] == ["nan", "inf", "-inf", "-0x0.0p+0",
                                   "0x0.0000000000001p-1022", "0x1.8000000000000p+1"]

    def test_extra_keys_are_written_and_ignored_on_read(self):
        spec = OptimizerSpec()
        rec = to_record(spec, t=4, has_n=True)
        assert sorted(rec) == ["bias_correction", "eps", "has_n", "kind", "lr",
                               "mu", "nu", "t"]
        assert from_record(OptimizerSpec, rec) == spec

    def test_missing_field_is_key_error(self):
        rec = to_record(VolumizationConfig())
        del rec["alpha"]
        with pytest.raises(KeyError, match="alpha"):
            from_record(VolumizationConfig, rec)

    @pytest.mark.parametrize("bad", [0.5, "half", ["0x1p-1"]],
                             ids=["json-number", "not-hex", "list"])
    def test_float_not_a_hex_literal_is_refused(self, bad):
        rec = {**to_record(VolumizationConfig()), "alpha": bad}
        with pytest.raises((TypeError, ValueError)):
            from_record(VolumizationConfig, rec)
