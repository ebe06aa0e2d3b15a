"""Trajectory summaries and the resumable epoch loop."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from volumize.checkpoint import load_checkpoint, save_checkpoint
from volumize.errors import CheckpointError, ConfigError, DomainError, ShapeError
from volumize.linalg import SeededRng, stable_hash
from volumize.net import LayerSpec, forward, init_network
from volumize.optimizers import OptimizerSpec
from volumize.training import (
    MetricTrajectory,
    evaluate,
    new_run,
    run_epochs,
    train_model,
)
from volumize.volumization import VolumizationConfig, derive_layer_volumes

OFF = VolumizationConfig()  # alpha=1: transform disabled


def _net(seed):
    specs = [LayerSpec(5, 12, activation="relu"), LayerSpec(12, 3)]
    return init_network(specs, SeededRng(stable_hash("train-tests", seed)))


class TestMetricTrajectory:
    def _traj(self, accs):
        t = MetricTrajectory()
        t.test_acc = list(accs)
        t.test_loss = [0.0] * len(accs)
        t.train_loss = [0.0] * len(accs)
        t.train_acc = [0.0] * len(accs)
        return t

    def test_best_last_gap(self):
        accs = [0.1] * 10 + [0.9] + [0.5] * 10
        t = self._traj(accs)
        assert t.best == 0.9
        assert t.last == pytest.approx(0.5)
        assert t.gap == pytest.approx(0.4)
        assert not t.short_run

    def test_last_window_is_ten_epochs(self):
        t = self._traj([0.0] * 5 + [1.0] * 10)
        assert t.last == 1.0

    def test_short_run_averages_everything(self):
        t = self._traj([0.2, 0.4, 0.6])
        assert t.short_run
        assert t.last == pytest.approx(0.4)

    def test_empty_trajectory_raises(self):
        t = self._traj([])
        with pytest.raises(DomainError):
            t.best
        with pytest.raises(DomainError):
            t.last
        assert t.n_epochs == 0


class TestEvaluate:
    def test_matches_manual_accuracy(self, tiny_data):
        net = _net(0)
        loss, acc = evaluate(net, tiny_data.x_test, tiny_data.y_test)
        out = forward(net, tiny_data.x_test)
        assert acc == (out.argmax(axis=1) == tiny_data.y_test).mean()
        assert np.isfinite(loss) and loss > 0

    def test_mse_accuracy_is_nan(self, tiny_data):
        net = _net(0)
        y = np.zeros((tiny_data.n_test, 3))
        loss, acc = evaluate(net, tiny_data.x_test, y, loss="mse")
        assert np.isfinite(loss)
        assert np.isnan(acc)

    def test_unknown_loss(self, tiny_data):
        with pytest.raises(ConfigError):
            evaluate(_net(0), tiny_data.x_test, tiny_data.y_test, loss="hinge")


class TestRunEpochs:
    def test_metrics_recorded_per_epoch(self, tiny_data, sgd_spec):
        run = new_run(_net(1), sgd_spec, OFF, SeededRng(1), batch_size=16)
        run_epochs(run, tiny_data, 4)
        assert run.epoch == 4
        t = run.trajectory
        assert len(t.train_loss) == len(t.test_acc) == 4

    def test_training_reduces_loss(self, tiny_data, sgd_spec):
        run = new_run(_net(2), sgd_spec, OFF, SeededRng(2), batch_size=16)
        run_epochs(run, tiny_data, 15)
        assert run.trajectory.train_loss[-1] < run.trajectory.train_loss[0]
        assert run.trajectory.test_acc[-1] > 0.5

    def test_split_run_matches_straight_run(self, tiny_data, sgd_spec):
        # 3 + 2 epochs on one run object == 5 epochs straight through
        net_a, net_b = _net(3), _net(3)
        run_a = new_run(net_a, sgd_spec, OFF, SeededRng(9), batch_size=16)
        run_b = new_run(net_b, sgd_spec, OFF, SeededRng(9), batch_size=16)
        run_epochs(run_a, tiny_data, 3)
        run_epochs(run_a, tiny_data, 2)
        run_epochs(run_b, tiny_data, 5)
        assert run_a.trajectory.test_acc == run_b.trajectory.test_acc
        assert run_a.trajectory.train_loss == run_b.trajectory.train_loss
        for (_, a), (_, b) in zip(net_a.param_tensors(), net_b.param_tensors()):
            assert_array_equal(a, b)

    def test_hook_sees_recorded_epoch(self, tiny_data, sgd_spec):
        seen = []

        def hook(net, state, epoch):
            seen.append((epoch, len(run.trajectory.test_acc)))

        run = new_run(_net(4), sgd_spec, OFF, SeededRng(4), batch_size=16)
        run_epochs(run, tiny_data, 3, epoch_hook=hook)
        # metrics for epoch k are already recorded when the hook fires
        assert seen == [(1, 1), (2, 2), (3, 3)]

    def test_hook_mutation_changes_next_epoch(self, tiny_data, sgd_spec):
        def zero_hook(net, state, epoch):
            if epoch == 1:
                for _, t in net.param_tensors():
                    t[...] = 0.0

        run = new_run(_net(5), sgd_spec, OFF, SeededRng(5), batch_size=16)
        run_epochs(run, tiny_data, 1, epoch_hook=zero_hook)
        frozen = [t.copy() for _, t in run.net.param_tensors()]
        assert all((t == 0).all() for t in frozen)

    def test_zero_epochs_is_a_no_op(self, tiny_data, sgd_spec):
        run = new_run(_net(6), sgd_spec, OFF, SeededRng(6), batch_size=16)
        run_epochs(run, tiny_data, 0)
        assert run.epoch == 0
        assert run.trajectory.n_epochs == 0

    def test_without_train_metrics_keeps_test_bits(self, tiny_data, sgd_spec):
        walls = VolumizationConfig(v=0.3, alpha=0.0)
        full = new_run(_net(12), sgd_spec, walls, SeededRng(12), batch_size=16)
        lean = new_run(_net(12), sgd_spec, walls, SeededRng(12), batch_size=16)
        run_epochs(full, tiny_data, 3)
        run_epochs(lean, tiny_data, 3, train_metrics=False)
        assert lean.epoch == full.epoch == 3
        assert lean.trajectory.train_loss == [] and lean.trajectory.train_acc == []
        for name in ("test_loss", "test_acc"):
            assert ([x.hex() for x in getattr(lean.trajectory, name)]
                    == [x.hex() for x in getattr(full.trajectory, name)])
        for (_, a), (_, b) in zip(lean.net.param_tensors(), full.net.param_tensors()):
            assert a.tobytes() == b.tobytes()
        assert lean.shuffle_rng.get_state() == full.shuffle_rng.get_state()

    def test_run_without_train_metrics_does_not_load_back(self, tmp_path,
                                                          tiny_data, sgd_spec):
        # save refuses the run up front: the good checkpoint already at the
        # path stays byte for byte, and a fresh path is never created
        run = new_run(_net(13), sgd_spec, OFF, SeededRng(13), batch_size=16)
        run_epochs(run, tiny_data, 1)
        path = tmp_path / "lean.bin"
        save_checkpoint(path, run)
        good = path.read_bytes()
        run_epochs(run, tiny_data, 1, train_metrics=False)
        with pytest.raises(CheckpointError, match="integrity: .*trajectory lengths"):
            save_checkpoint(path, run)
        assert path.read_bytes() == good
        assert load_checkpoint(path).epoch == 1
        fresh = tmp_path / "fresh.bin"
        with pytest.raises(CheckpointError, match="trajectory lengths"):
            save_checkpoint(fresh, run)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lean.bin"]

    def test_negative_epochs(self, tiny_data, sgd_spec):
        run = new_run(_net(6), sgd_spec, OFF, SeededRng(6), batch_size=16)
        with pytest.raises(ConfigError):
            run_epochs(run, tiny_data, -1)


class TestNewRun:
    def test_walls_derived_when_enabled(self, sgd_spec):
        net = _net(7)
        cfg = VolumizationConfig(v=0.5, alpha=0.5)
        run = new_run(net, sgd_spec, cfg, SeededRng(7))
        assert run.vols == derive_layer_volumes(net, cfg)
        assert len(run.vols) == len(net.layers)

    def test_no_walls_when_disabled(self, sgd_spec):
        run = new_run(_net(7), sgd_spec, OFF, SeededRng(7))
        assert run.vols is None

    def test_vols_override_wins(self, tiny_data, sgd_spec):
        # explicit walls distinct from what vol_cfg would derive
        net = _net(8)
        cfg = VolumizationConfig(v=0.5, alpha=0.0)
        custom = [0.123 for _ in derive_layer_volumes(net, cfg)]
        run = new_run(net, sgd_spec, cfg, SeededRng(8), batch_size=16,
                      vols=custom)
        run_epochs(run, tiny_data, 2)
        for _, t in net.param_tensors():
            assert np.abs(t).max() <= 0.123 + 1e-12

    def test_validation(self, sgd_spec):
        with pytest.raises(ConfigError):
            new_run(_net(9), sgd_spec, OFF, SeededRng(9), batch_size=0)
        with pytest.raises(ConfigError):
            new_run(_net(9), sgd_spec, OFF, SeededRng(9), loss="huber")

    @pytest.mark.parametrize("vols", [(0.5,), (0.5, 0.5, 0.5)])
    def test_wall_count_must_match_the_layers(self, sgd_spec, vols):
        # refused here, not by the first step after a forward and backward pass
        with pytest.raises(ShapeError, match=f"got {len(vols)} walls for 2 layers"):
            new_run(_net(9), sgd_spec, VolumizationConfig(v=0.5, alpha=0.0),
                    SeededRng(9), vols=vols)


class TestTrainModel:
    def test_matches_manual_run(self, tiny_data, sgd_spec):
        net_a, net_b = _net(10), _net(10)
        traj = train_model(net_a, tiny_data, sgd_spec, OFF, SeededRng(42),
                           epochs=4, batch_size=16)
        run = new_run(net_b, sgd_spec, OFF, SeededRng(42), batch_size=16)
        run_epochs(run, tiny_data, 4)
        assert traj.test_acc == run.trajectory.test_acc
        for (_, a), (_, b) in zip(net_a.param_tensors(), net_b.param_tensors()):
            assert_array_equal(a, b)

    def test_walls_keep_weights_inside(self, tiny_data):
        net = _net(11)
        cfg = VolumizationConfig(v=0.3, alpha=0.0)
        spec = OptimizerSpec(kind="adam", lr=3e-3)
        train_model(net, tiny_data, spec, cfg, SeededRng(11), epochs=3,
                    batch_size=16)
        vols = derive_layer_volumes(net, cfg)
        for i, _, t in net.layer_tensors():
            assert np.abs(t).max() <= vols[i] + 1e-12
