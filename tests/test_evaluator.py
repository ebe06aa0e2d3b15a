"""The forked evaluator: an epoch's metrics computed beside the training
loop, with the bytes of in-process evaluation.

Whether it forks depends on _pool.available_cpus, which the tests patch to
2 (it forks) and 1 (it does not), whatever the CPU count of the machine
running them.
"""

import multiprocessing
import os
import signal

import pytest

from volumize import _pool, runs, training
from volumize.cli import main
from volumize.config import TRAIN_SCHEMA, apply_schema
from volumize.errors import NumericError, ShapeError, VolumizeError
from volumize.linalg import SeededRng
from volumize.net import LayerSpec, init_network
from volumize.optimizers import OptimizerSpec
from volumize.training import new_run, run_epochs
from volumize.volumization import VolumizationConfig

_DATA = """\
n_classes = 3
n_per_class = 25
dim = 4
spread = 0.6
noise_ratio = 0.2
hidden_dims = 8
optimizer = adam
lr = 3e-3
batch_size = 16
"""
_CFG = {
    "train": _DATA + "epochs = 50\nv = 0.5\nalpha = 0.5\ncheckpoint_every = 25\n",
    "quantize": _DATA + "epochs = 9\nv = 0.5\nalpha = 0\nperiod_epochs = 2\n",
    "spectral": _DATA + "epochs = 6\nprobe_pairs = 300\n",
}


def _with_cpus(monkeypatch, n):
    monkeypatch.setattr(_pool, "available_cpus", lambda: n)


def _cfg(tmp_path, command):
    p = tmp_path / f"{command}.cfg"
    p.write_text(_CFG[command], encoding="utf-8")
    return str(p)


def _files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def _bits(traj):
    return [[x.hex() for x in getattr(traj, name)]
            for name in ("train_loss", "train_acc", "test_loss", "test_acc")]


def _run():
    """A fresh run on the conftest's tiny_data: 5 -> 12 -> 3, walls on."""
    net = init_network([LayerSpec(5, 12, activation="relu"), LayerSpec(12, 3)],
                       SeededRng(5))
    return new_run(net, OptimizerSpec(kind="sgd", lr=0.05, mu=0.9),
                   VolumizationConfig(v=0.5, alpha=0.5), SeededRng(6), batch_size=16)


class TestSameBytes:
    @pytest.mark.parametrize("command", ["train", "quantize", "spectral"])
    def test_output_bytes_do_not_depend_on_a_spare_cpu(self, tmp_path, monkeypatch,
                                                       forks, command):
        got = {}
        for cpus in (2, 1):
            _with_cpus(monkeypatch, cpus)
            out = tmp_path / f"{command}-{cpus}"
            assert main([command, "--config", _cfg(tmp_path, command),
                         "--out", str(out), "--seed", "3"]) == 0
            got[cpus] = _files(out)
        assert got[2] == got[1]
        if command == "train":
            assert "checkpoint.bin" in got[2]
        # one evaluator, forked by this process, and only with the spare CPU
        assert forks() == [f"{os.getpid()} evaluator"]

    def test_resume_from_the_epoch_25_checkpoint(self, tmp_path, monkeypatch):
        _with_cpus(monkeypatch, 2)
        cfg = apply_schema(dict(line.split(" = ") for line in _CFG["train"].splitlines()),
                           TRAIN_SCHEMA)
        straight, cut = tmp_path / "straight", tmp_path / "cut"
        runs.run_train(cfg, str(straight), 4)
        real = runs.save_checkpoint

        def save_then_stop(path, run):
            real(path, run)
            raise NumericError("stopped after the first checkpoint")

        monkeypatch.setattr(runs, "save_checkpoint", save_then_stop)
        with pytest.raises(NumericError, match="stopped"):
            runs.run_train(cfg, str(cut), 4)
        monkeypatch.setattr(runs, "save_checkpoint", real)
        assert runs.load_checkpoint(str(cut / "checkpoint.bin")).epoch == 25
        runs.run_train(cfg, str(cut), 4, resume=True)
        assert _files(cut) == _files(straight)


class TestHooks:
    def test_a_hook_sees_every_completed_epoch(self, tiny_data, monkeypatch, forks):
        runs_by_cpus = {}
        for cpus in (2, 1):
            _with_cpus(monkeypatch, cpus)
            run = _run()
            seen = []

            def hook(net, state, epoch, run=run, seen=seen):
                traj = run.trajectory
                seen.append((epoch, run.epoch, len(traj.train_loss), len(traj.test_acc)))

            run_epochs(run, tiny_data, 6, epoch_hook=hook)
            assert seen == [(e, e, e, e) for e in range(1, 7)]
            runs_by_cpus[cpus] = run.trajectory
        assert _bits(runs_by_cpus[2]) == _bits(runs_by_cpus[1])
        assert forks() == [f"{os.getpid()} evaluator"]

    def test_one_epoch_evaluates_in_process(self, tiny_data, monkeypatch, forks):
        _with_cpus(monkeypatch, 2)
        run = _run()
        run_epochs(run, tiny_data, 1)
        run_epochs(run, tiny_data, 0)
        assert run.trajectory.n_epochs == 1
        assert forks() == []

    @pytest.mark.parametrize("workers", (1, 2))
    def test_sweep_forks_only_its_pool(self, tmp_path, monkeypatch, forks, workers):
        # a cell evaluates the test split alone, so it forks no evaluator,
        # also when the sweep's own process runs it (--workers 1)
        _with_cpus(monkeypatch, 2)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(_DATA + "epochs = 3\nv_grid = 0.5, inf\nalpha_grid = 0, 1\n"
                       "repeats = 1\n", encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--workers", str(workers)]) == 0
        assert forks() == [f"{os.getpid()} worker"] * (2 if workers == 2 else 0)

    def test_pool_workers_start_nothing(self, monkeypatch):
        _with_cpus(monkeypatch, 2)
        assert _pool.map_ordered(_may_start_children, [()] * 2, 2) == [False, False]
        assert _may_start_children()

    def test_trajectory_is_set_as_a_field(self, tiny_data):
        run = _run()
        run_epochs(run, tiny_data, 2)
        again = training.TrainingRun(
            net=run.net, opt_spec=run.opt_spec, opt_state=run.opt_state,
            vol_cfg=run.vol_cfg, vols=run.vols, shuffle_rng=run.shuffle_rng,
            batch_size=run.batch_size, loss=run.loss, epoch=2,
            trajectory=run.trajectory)
        assert again.trajectory is run.trajectory
        again.trajectory = training.MetricTrajectory()
        assert again.trajectory.n_epochs == 0


def _may_start_children():
    return _pool.spare_cpu()


class TestErrors:
    def test_caller_error_leaves_no_child(self, tiny_data, monkeypatch):
        _with_cpus(monkeypatch, 2)
        real = training.loss_and_grad
        calls = []
        steps = -(-tiny_data.x_train.shape[0] // 16)  # an epoch's steps

        def fail_in_epoch_three(*args, **kw):
            calls.append(1)
            if len(calls) > 2 * steps:
                raise NumericError("non-finite loss")
            return real(*args, **kw)

        monkeypatch.setattr(training, "loss_and_grad", fail_in_epoch_three)
        run = _run()
        with pytest.raises(NumericError, match="non-finite loss"):
            run_epochs(run, tiny_data, 5)
        assert multiprocessing.active_children() == []
        assert run.epoch == 2 and run.trajectory.n_epochs == 2

    @pytest.mark.parametrize("cpus", (2, 1))
    def test_evaluation_error_keeps_its_class(self, tiny_data, monkeypatch, cpus):
        _with_cpus(monkeypatch, cpus)
        real = training.evaluate
        calls = []

        def refuse_from_epoch_two(net, x, y, loss):
            calls.append(1)  # in the evaluator, its own copy of the list
            if len(calls) > 2:
                raise ShapeError("class index out of range")
            return real(net, x, y, loss)

        monkeypatch.setattr(training, "evaluate", refuse_from_epoch_two)
        run = _run()
        with pytest.raises(ShapeError, match="class index out of range"):
            run_epochs(run, tiny_data, 4)
        # epoch 2's metrics are lost; the evaluator has trained on into epoch 3
        assert run.epoch == 1 and run.trajectory.n_epochs == 1
        assert multiprocessing.active_children() == []

    def test_lost_epoch_outranks_a_later_step_error(self, tiny_data, monkeypatch):
        # at 2 CPUs epoch 3 trains while epoch 2 is evaluated; in process,
        # epoch 2's error would have come first, so it is raised, caused by
        # the step's
        _with_cpus(monkeypatch, 2)
        real_evaluate, real_grad = training.evaluate, training.loss_and_grad
        evaluated, stepped = [], []
        steps = -(-tiny_data.x_train.shape[0] // 16)

        def refuse_from_epoch_two(net, x, y, loss):
            evaluated.append(1)
            if len(evaluated) > 2:
                raise ShapeError("class index out of range")
            return real_evaluate(net, x, y, loss)

        def fail_in_epoch_three(*args, **kw):
            stepped.append(1)
            if len(stepped) > 2 * steps:
                raise NumericError("non-finite loss")
            return real_grad(*args, **kw)

        monkeypatch.setattr(training, "evaluate", refuse_from_epoch_two)
        monkeypatch.setattr(training, "loss_and_grad", fail_in_epoch_three)
        run = _run()
        with pytest.raises(ShapeError) as info:
            run_epochs(run, tiny_data, 4)
        assert isinstance(info.value.__cause__, NumericError)
        assert run.epoch == 1 and run.trajectory.n_epochs == 1

    def test_lost_evaluator_is_volumize_error(self, tiny_data, monkeypatch):
        _with_cpus(monkeypatch, 2)
        run = _run()

        def kill_after_two(net, state, epoch):
            if epoch == 2:
                assert run.trajectory.n_epochs == 2
                _kill_evaluator()

        with pytest.raises(VolumizeError) as info:
            run_epochs(run, tiny_data, 5, epoch_hook=kill_after_two)
        assert type(info.value) is VolumizeError  # exit 2
        assert str(info.value) == ("the evaluator process died before it sent "
                                   "the metrics of epoch 3")
        assert multiprocessing.active_children() == []
        assert run.epoch == 2 and run.trajectory.n_epochs == 2

    def test_lost_evaluator_exits_two(self, tmp_path, monkeypatch, capsys):
        _with_cpus(monkeypatch, 2)
        real = runs.save_checkpoint

        def save_then_kill(path, run):
            real(path, run)
            _kill_evaluator()

        monkeypatch.setattr(runs, "save_checkpoint", save_then_kill)
        assert main(["train", "--config", _cfg(tmp_path, "train"),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "error: the evaluator process died before it sent the metrics of epoch 26\n")


def _kill_evaluator():
    (evaluator,) = multiprocessing.active_children()
    os.kill(evaluator.pid, signal.SIGKILL)
    evaluator.join(timeout=10)
    assert not evaluator.is_alive()
