"""Epoch-driven minibatch training with resumable state.

The loop is deliberately rigid so that runs are replayable: the only random
choice per epoch is one shuffle permutation drawn from a dedicated child
stream, and everything a run needs to continue (parameters, optimizer
moments, shuffle-stream position, epoch counter, metric history) lives on
the TrainingRun object. Saving that object and resuming later reproduces the
uninterrupted run bit for bit.

Each epoch's metrics come from evaluate on both splits (the test split
alone with train_metrics=False). When both splits are evaluated and a CPU
is spare, a forked evaluator (_pool.served) computes them from a copy of
the epoch's weights while the caller trains the next epoch; the evaluator
runs the same code on the same bytes, so every metric has the same bits as
in-process evaluation, and no output depends on whether a CPU was spare.
Reading run.trajectory waits for the metrics still being computed, so a
hook, or a checkpoint written from one, sees every completed epoch's
metrics.
"""

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from . import _pool
from .errors import ConfigError, DomainError
from .linalg import SeededRng
from .net import LOSSES, _loss_and_output_grad, forward, loss_and_grad
from .optimizers import OptimizerSpec, OptimizerState, step
from .volumization import VolumizationConfig, check_walls, derive_layer_volumes


@dataclass(eq=False)
class MetricTrajectory:
    """Per-epoch metrics plus the three summary numbers used everywhere.

    Last averages test accuracy over the final 10 epochs; runs shorter than
    that average over everything and say so via short_run. Every summary
    reads the test lists only; the train lists stay empty for a run advanced
    with train_metrics=False (a sweep cell), and such a trajectory is not
    checkpointable: load_checkpoint refuses lists whose lengths differ from
    the epoch counter.
    """

    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.test_acc)

    @property
    def short_run(self) -> bool:
        return self.n_epochs < 10

    @property
    def best(self) -> float:
        if not self.test_acc:
            raise DomainError("no epochs recorded")
        return max(self.test_acc)

    @property
    def last(self) -> float:
        if not self.test_acc:
            raise DomainError("no epochs recorded")
        window = self.test_acc if self.short_run else self.test_acc[-10:]
        return sum(window) / len(window)

    @property
    def gap(self) -> float:
        return self.best - self.last


def evaluate(net, x, y, loss: str = "softmax_xent"):
    """(loss, accuracy) on a labeled batch; accuracy is NaN for mse."""
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    out = forward(net, x)
    value, _ = _loss_and_output_grad(out, y, loss, out.shape[0])
    if loss == "mse":
        return value, float("nan")
    acc = float((out.argmax(axis=1) == np.asarray(y)).mean())
    return value, acc


def _metrics(net, data, loss: str, train_metrics: bool) -> list:
    """One epoch's metrics as a list of floats: the training split's loss
    and accuracy (only with train_metrics), then the test split's."""
    splits = [(data.x_test, data.y_test)]
    if train_metrics:
        splits.insert(0, (data.x_train, data.y_train))
    return [float(m) for x, y in splits for m in evaluate(net, x, y, loss)]


def _record(traj: MetricTrajectory, metrics: list) -> None:
    if len(metrics) == 4:
        traj.train_loss.append(metrics[0])
        traj.train_acc.append(metrics[1])
    traj.test_loss.append(metrics[-2])
    traj.test_acc.append(metrics[-1])


class TrainingRun:
    """Everything needed to continue a run: mutate via run_epochs only."""

    def __init__(self, net, opt_spec: OptimizerSpec, opt_state,
                 vol_cfg: VolumizationConfig, vols: tuple, shuffle_rng: SeededRng,
                 batch_size: int, loss: str, epoch: int = 0,
                 trajectory: MetricTrajectory | None = None):
        self.net = net
        self.opt_spec = opt_spec
        self.opt_state = opt_state
        self.vol_cfg = vol_cfg
        self.vols = vols  # one wall per layer; None when the transform is inactive
        self.shuffle_rng = shuffle_rng
        self.batch_size = batch_size
        self.loss = loss
        self.epoch = epoch
        # (epoch, evaluator) while the evaluator holds that epoch's metrics
        self._pending = None
        self.trajectory = MetricTrajectory() if trajectory is None else trajectory

    @property
    def trajectory(self) -> MetricTrajectory:
        """The metrics of every completed epoch. Reading it first waits for
        an epoch whose metrics the evaluator is still computing."""
        self._receive()
        return self._recorded

    @trajectory.setter
    def trajectory(self, trajectory: MetricTrajectory) -> None:
        self._recorded = trajectory

    def _receive(self) -> None:
        """Records the metrics of the epoch the evaluator holds, if any, once
        they arrive. If they are lost, the epoch counter goes back to the
        last recorded epoch, where in-process evaluation would have left it."""
        if self._pending is not None:
            (epoch, evaluator), self._pending = self._pending, None
            try:
                metrics = evaluator.receive(f"the metrics of epoch {epoch}")
            except BaseException:
                self.epoch = epoch - 1
                raise
            _record(self._recorded, metrics)


def new_run(net, opt_spec: OptimizerSpec, vol_cfg: VolumizationConfig,
            rng: SeededRng, batch_size: int = 128,
            loss: str = "softmax_xent", vols=None) -> TrainingRun:
    """vols overrides the walls, one per layer (vol_cfg then contributes
    only alpha and the overshoot policy); by default they derive from
    vol_cfg. A negative or NaN wall raises DomainError, and a count of
    walls other than the net's layer count ShapeError."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    if vols is None:
        vols = derive_layer_volumes(net, vol_cfg)
    else:
        vols = tuple(float(v) for v in vols)
        check_walls(net, vols)
        for i, v in enumerate(vols):
            if not v >= 0.0:  # catches NaN too
                raise DomainError(f"wall must be >= 0, got {v} for layer{i}")
    return TrainingRun(
        net=net, opt_spec=opt_spec, opt_state=OptimizerState.init_for(net, opt_spec),
        vol_cfg=vol_cfg, vols=vols,
        shuffle_rng=rng.spawn("shuffle"),
        batch_size=batch_size, loss=loss,
    )


def run_epochs(run: TrainingRun, data, n_epochs: int, epoch_hook=None,
               train_metrics: bool = True) -> None:
    """Advance a run by n_epochs. After each epoch's steps its metrics are
    taken from the weights as they stand, then epoch_hook(net, opt_state,
    completed_epoch) fires, in that order: a hook may mutate the state for
    the next epoch without touching the metrics, and a hook that reads
    run.trajectory sees the metrics of every completed epoch, its own
    included. run_epochs returns once every metric is recorded.

    The metrics are computed in a forked evaluator beside the caller when
    both splits are evaluated, a CPU is spare (_pool.spare_cpu) and there
    are at least two epochs, and in process otherwise: a sweep cell, which
    evaluates the test split alone, ran no faster with a fork. The bits are
    the same either way. An evaluator that dies raises VolumizeError naming
    the epoch it held. When an epoch's metrics are lost, by an error or a
    dead evaluator, the error is raised and run.epoch counts the recorded
    epochs only, as in process, though the weights may have moved on.

    With train_metrics=False the end-of-epoch pass over the training split
    is skipped and train_loss/train_acc get no entries; the test metrics,
    the weights and the shuffle stream are bit for bit those of the default.
    A run advanced that way cannot be checkpointed and loaded back.
    """
    if n_epochs < 0:
        raise ConfigError(f"n_epochs must be >= 0, got {n_epochs}")
    n = data.x_train.shape[0]
    bs = run.batch_size
    n_batches = math.ceil(n / bs)

    def answer(params: np.ndarray) -> list:
        # in the evaluator, whose run.net is its own snapshot of the caller's
        run.net.params[...] = params
        return _metrics(run.net, data, run.loss, train_metrics)

    forked = train_metrics and n_epochs >= 2 and _pool.spare_cpu()
    evaluating = _pool.served(answer, "evaluator") if forked else contextlib.nullcontext()
    with evaluating as evaluator:
        try:
            for _ in range(n_epochs):
                perm = run.shuffle_rng.permutation(n)
                for b in range(n_batches):
                    sel = perm[b * bs:(b + 1) * bs]
                    xb = np.ascontiguousarray(data.x_train[sel])
                    yb = data.y_train[sel]
                    grads = loss_and_grad(run.net, xb, yb, loss=run.loss)
                    step(run.net, grads, run.opt_state, run.opt_spec,
                         vols=run.vols, alpha=run.vol_cfg.alpha,
                         overshoot_policy=run.vol_cfg.overshoot_policy)
                if evaluator is None:
                    _record(run._recorded, _metrics(run.net, data, run.loss, train_metrics))
                else:
                    run._receive()  # the epoch before, so one epoch is in flight
                    evaluator.send(run.net.params)
                    run._pending = (run.epoch + 1, evaluator)
                run.epoch += 1
                if epoch_hook is not None:
                    epoch_hook(run.net, run.opt_state, run.epoch)
        except BaseException as failed:
            # The epoch in flight came first: in process, its error would
            # have stopped the run before the step or hook that failed.
            try:
                run._receive()
            except BaseException as lost:
                raise lost from failed
            raise
        run._receive()


def train_model(net, data, opt_spec: OptimizerSpec, vol_cfg: VolumizationConfig,
                rng: SeededRng, epochs: int = 100, batch_size: int = 128,
                train_metrics: bool = True) -> MetricTrajectory:
    """One-call training: build a fresh run, advance it, hand back the
    trajectory. The net and optimizer state are mutated in place; keep the
    TrainingRun API instead when you need checkpoints. train_metrics=False
    leaves the trajectory's train lists empty (see run_epochs) for a caller
    that reads only test metrics."""
    run = new_run(net, opt_spec, vol_cfg, rng, batch_size=batch_size)
    run_epochs(run, data, epochs, train_metrics=train_metrics)
    return run.trajectory
