"""Epoch-driven minibatch training with resumable state.

The loop is deliberately rigid so that runs are replayable: the only random
choice per epoch is one shuffle permutation drawn from a dedicated child
stream, and everything a run needs to continue (parameters, optimizer
moments, shuffle-stream position, epoch counter, metric history) lives on
the TrainingRun object. Saving that object and resuming later reproduces the
uninterrupted run bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .linalg import SeededRng
from .net import LOSSES, _loss_and_output_grad, forward, loss_and_grad
from .optimizers import OptimizerSpec, OptimizerState, step
from .volumization import VolumizationConfig, derive_layer_volumes


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


@dataclass(eq=False)
class TrainingRun:
    """Everything needed to continue a run: mutate via run_epochs only."""

    net: "object"
    opt_spec: OptimizerSpec
    opt_state: "object"
    vol_cfg: VolumizationConfig
    vols: tuple         # one wall per layer; None when the transform is inactive
    shuffle_rng: SeededRng
    batch_size: int
    loss: str
    epoch: int = 0
    trajectory: MetricTrajectory = field(default_factory=MetricTrajectory)


def new_run(net, opt_spec: OptimizerSpec, vol_cfg: VolumizationConfig,
            rng: SeededRng, batch_size: int = 128,
            loss: str = "softmax_xent", vols=None) -> TrainingRun:
    """vols overrides the walls, one per layer (vol_cfg then contributes
    only alpha and the overshoot policy); by default they derive from
    vol_cfg. A negative or NaN wall raises DomainError."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if loss not in LOSSES:
        raise ConfigError(f"loss must be one of {LOSSES}, got {loss!r}")
    if vols is None:
        vols = derive_layer_volumes(net, vol_cfg)
    else:
        vols = tuple(float(v) for v in vols)
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
    """Advance a run by n_epochs. Metrics are recorded at each epoch's end,
    then epoch_hook(net, opt_state, completed_epoch) fires, in that order,
    so hooks see the recorded state and may mutate it for the next epoch.

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
        if train_metrics:
            tr_loss, tr_acc = evaluate(run.net, data.x_train, data.y_train, run.loss)
            run.trajectory.train_loss.append(tr_loss)
            run.trajectory.train_acc.append(tr_acc)
        te_loss, te_acc = evaluate(run.net, data.x_test, data.y_test, run.loss)
        run.trajectory.test_loss.append(te_loss)
        run.trajectory.test_acc.append(te_acc)
        run.epoch += 1
        if epoch_hook is not None:
            epoch_hook(run.net, run.opt_state, run.epoch)


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
