"""Solver-step and epoch timing for the untraced runs.

A step is one iteration of the workload's solver: an optimizer step (one
minibatch's ``loss_and_grad`` followed by its ``step``) in training, or one
Euler iteration of the gradient flow in the theory lab. Epochs are timed
from ``run_train``'s epoch hook, without the hook's own checkpoint writes.
The clock adds two clock reads per step, which leaves the untraced run's
timing alone. Forked sweep workers append their step times to a file after
each cell's training.
"""

import functools
import os
import time


class StepClock:
    """Wraps the step, flow-iteration and epoch boundaries with clock reads."""

    def __init__(self, vz, spool_dir):
        self.steps = []
        self.epochs = []
        self._spool_dir = spool_dir
        self._main_pid = os.getpid()
        self._start = 0.0
        clock = time.perf_counter
        training, kernels, sweep, runs = vz.training, vz._kernels, vz.sweep, vz.runs

        def loss_and_grad(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._start = clock()
                return fn(*args, **kwargs)
            return wrapper

        def step(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.steps.append(clock() - self._start)
                return result
            return wrapper

        def flow_iter(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                self.steps.append(clock() - t0)
                return result
            return wrapper

        def train_model(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if os.getpid() != self._main_pid:
                    self._flush_worker()
                return result
            return wrapper

        def run_epochs(fn):
            @functools.wraps(fn)
            def wrapper(run, data, n_epochs, epoch_hook=None):
                if epoch_hook is None:
                    return fn(run, data, n_epochs)
                start = [clock()]

                def hook(net, state, epoch):
                    self.epochs.append(clock() - start[0])
                    epoch_hook(net, state, epoch)
                    start[0] = clock()

                return fn(run, data, n_epochs, epoch_hook=hook)
            return wrapper

        self._patches = [
            (training, "loss_and_grad", loss_and_grad),
            (training, "step", step),
            (kernels, "flow_iter_identity", flow_iter),
            (sweep, "train_model", train_model),
            (runs, "run_epochs", run_epochs),
        ]
        self._saved = []
        # a forked worker reports only its own steps
        os.register_at_fork(after_in_child=self.steps.clear)

    def install(self):
        for owner, attr, make in self._patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _flush_worker(self):
        path = os.path.join(self._spool_dir, f"steps-worker-{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as f:
            f.writelines(f"{s!r}\n" for s in self.steps)
        self.steps.clear()

    def collect_workers(self):
        """Move the step times the workers wrote into ``steps``."""
        for fname in sorted(os.listdir(self._spool_dir)):
            if fname.startswith("steps-worker-"):
                path = os.path.join(self._spool_dir, fname)
                with open(path, encoding="utf-8") as f:
                    self.steps.extend(float(line) for line in f)
                os.remove(path)
